"""Derived-bracket L-infinity algebra of a flat associative 3-plane.

The ambient model is R^7 with the standard positive 3-form; a coordinate
3-plane L plays the submanifold, its complementary coordinate 4-plane the
normal bundle, and the exponential map is the identity.  Normal-valued
forms on L are lifted to tangent-valued forms on R^7 by pulling the form
factor back along the projection and lifting normal directions to constant
vertical fields; the projection P restricts to L and keeps the normal
vector part.  The multibrackets are iterated Frolicher-Nijenhuis brackets
with the cross-product tensor, projected by P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .bracket import fn_bracket, lie_tensor
from .exterior import (
    DegreeError,
    DifferentialForm,
    ModelSpace,
    VectorValuedForm,
    _Components,
    affine_space,
    contract_metric,
    hodge_star,
)
from .g2 import standard_phi

AMBIENT = affine_space(7)
PLANE_SPACE = affine_space(3)


@lru_cache(maxsize=1)
def ambient_chi() -> VectorValuedForm:
    """The cross-product tensor of the standard structure (constant)."""
    return contract_metric(hodge_star(standard_phi(AMBIENT).phi))


@dataclass(frozen=True)
class FlatAssociativeModel:
    """A coordinate 3-plane with its complementary normal frame."""

    plane: tuple[int, int, int]
    normal: tuple[int, int, int, int]

    def __post_init__(self):
        if sorted(self.plane + self.normal) != list(range(1, 8)):
            raise ValueError("plane and normal frame must partition 1..7")
        if list(self.plane) != sorted(self.plane) or list(self.normal) != sorted(self.normal):
            raise ValueError("frames are kept in ascending index order")

    @classmethod
    def from_plane(cls, plane) -> "FlatAssociativeModel":
        plane = tuple(sorted(plane))
        if len(plane) != 3:
            raise ValueError("the plane is spanned by three basis directions")
        normal = tuple(i for i in range(1, 8) if i not in plane)
        return cls(plane, normal)

    @property
    def ambient(self) -> ModelSpace:
        return AMBIENT


class NormalValuedForm(_Components):
    """Element of Omega^p(L, NL): one form on the plane per normal
    direction; its vector-space algebra is `exterior._Components`."""

    __slots__ = ("model", "degree", "components")

    def __init__(self, model: FlatAssociativeModel, degree: int, components):
        components = tuple(components)
        if len(components) != 4:
            raise ValueError("need one component per normal direction")
        for a in components:
            if a.space != PLANE_SPACE:
                raise ValueError("components live on the 3-dimensional plane")
            if a.degree != degree:
                raise DegreeError("components must share the stated degree")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", components)

    def _tags(self) -> tuple:
        return (self.model, self.degree)

    def _check(self, other: "NormalValuedForm") -> None:
        if self._tags() != other._tags():
            raise ValueError("mismatched normal-valued forms")

    @classmethod
    def zero(cls, model: FlatAssociativeModel, degree: int) -> "NormalValuedForm":
        return cls(model, degree, [DifferentialForm.zero(PLANE_SPACE, degree)] * 4)

    @classmethod
    def decomposable(cls, model, form: DifferentialForm, normal_slot: int) -> "NormalValuedForm":
        """form (x) nu_a for the a-th normal direction (1-based slot)."""
        comps = [DifferentialForm.zero(PLANE_SPACE, form.degree)] * 4
        comps[normal_slot - 1] = form
        return cls(model, form.degree, comps)

    @property
    def parity(self) -> int:
        return self.degree % 2

    def __repr__(self) -> str:
        return f"<{self.degree}-form on L with values in NL>"


# ---------------------------------------------------------------------------
# the lift and the projection
# ---------------------------------------------------------------------------


def _lift_form(a: DifferentialForm, model: FlatAssociativeModel) -> DifferentialForm:
    """Pull a plane form back along the projection: indices and exponents
    move to the plane's ambient positions."""
    out = {}
    for (idx, key), val in a.terms.items():
        new = [0] * 7
        for r, e in enumerate(key):
            new[model.plane[r] - 1] = e
        out[tuple(model.plane[r - 1] for r in idx), tuple(new)] = val
    return DifferentialForm._of(AMBIENT, a.degree, out)


def vertical_lift(omega: NormalValuedForm) -> VectorValuedForm:
    """Injective embedding of Omega^*(L, NL) into the ambient tangent-valued
    forms: pull the form factor back along the projection, lift normal
    directions to constant vertical fields."""
    model = omega.model
    comps = [DifferentialForm.zero(AMBIENT, omega.degree)] * 7
    for slot, a in enumerate(omega.components):
        if a:
            comps[model.normal[slot] - 1] = _lift_form(a, model)
    return VectorValuedForm(AMBIENT, omega.degree, comps)


def project_P(K: VectorValuedForm, model: FlatAssociativeModel) -> NormalValuedForm:
    """Restriction to the plane followed by the normal projection."""
    if K.space != AMBIENT:
        raise ValueError("projection expects an ambient tangent-valued form")
    if K.degree > 3:
        return NormalValuedForm.zero(model, K.degree)
    rank = {p: r + 1 for r, p in enumerate(model.plane)}
    normal_pos = [i - 1 for i in model.normal]
    plane_pos = [i - 1 for i in model.plane]
    comps = []
    for a in model.normal:
        out = {}
        for (idx, key), val in K.components[a - 1].terms.items():
            if any(i not in rank for i in idx):
                continue  # a normal coframe factor dies on restriction
            if any(key[p] for p in normal_pos):
                continue  # a normal coordinate vanishes on the zero section
            # surviving keys are zero at all normal positions, so no collisions
            out[tuple(rank[i] for i in idx), tuple(key[p] for p in plane_pos)] = val
        comps.append(DifferentialForm._of(PLANE_SPACE, K.degree, out))
    return NormalValuedForm(model, K.degree, comps)


def is_associative(model: FlatAssociativeModel) -> tuple[bool, NormalValuedForm]:
    """Whether the plane is associative: the projected cross-product tensor
    must vanish.  Returns (flag, projection) with the projection as
    witness when nonzero."""
    projected = project_P(ambient_chi(), model)
    return (not projected, projected)


# ---------------------------------------------------------------------------
# multibrackets
# ---------------------------------------------------------------------------


def multibracket(model: FlatAssociativeModel, omegas) -> NormalValuedForm:
    """The k-th derived bracket: project the iterated FN bracket of the
    cross-product tensor with the lifted arguments."""
    current = ambient_chi()
    for omega in omegas:
        if omega.model != model:
            raise ValueError("argument on a different plane model")
        current = fn_bracket(current, vertical_lift(omega))
    return project_P(current, model)


def mk_via_lie(model: FlatAssociativeModel, fields) -> NormalValuedForm:
    """Degree-0 multibrackets through iterated tensor Lie derivatives along
    the negated lifted fields (the independent route)."""
    for V in fields:
        if V.degree != 0:
            raise DegreeError("the Lie-derivative route needs degree-0 inputs")
    current = ambient_chi()
    for V in reversed(list(fields)):
        X = vertical_lift(-V).to_vector_field()
        current = lie_tensor(X, current)
    return project_P(current, model)


def differential(model: FlatAssociativeModel, omega: NormalValuedForm) -> NormalValuedForm:
    """The unary bracket; nontrivial only on degree 0 since it raises the
    form degree by 3 on a 3-dimensional plane."""
    return multibracket(model, [omega])


# ---------------------------------------------------------------------------
# shuffles, Koszul signs, generalized Jacobi
# ---------------------------------------------------------------------------


def shuffles(k: int, l: int):
    """(k,l)-shuffles of 0..k+l-1 as index tuples (first block, second)."""
    items = tuple(range(k + l))
    for first in combinations(items, k):
        second = tuple(i for i in items if i not in first)
        yield first, second


def sign(p: int) -> int:
    """(-1)^p."""
    return -1 if p % 2 else 1


def koszul_sign(parities, permutation) -> int:
    """Sign of a permutation of homogeneous elements under the rule that
    transposing elements of parities p, q contributes (-1)^{pq}."""
    sign = 1
    n = len(permutation)
    for u in range(n):
        for v in range(u + 1, n):
            if permutation[u] > permutation[v]:
                if parities[permutation[u]] and parities[permutation[v]]:
                    sign = -sign
    return sign


def jacobi_defect(model: FlatAssociativeModel, args) -> NormalValuedForm:
    """The n-th generalized Jacobi sum over (k,l)-shuffles; zero for an
    L-infinity algebra (the 0-ary bracket vanishes on associative planes,
    so k = 0 drops out)."""
    n = len(args)
    parities = [a.parity for a in args]
    total = None
    for k in range(1, n + 1):
        l = n - k
        for first, second in shuffles(k, l):
            perm = first + second
            sign = koszul_sign(parities, perm)
            inner = multibracket(model, [args[i] for i in first])
            outer = multibracket(model, [inner] + [args[i] for i in second])
            term = outer if sign > 0 else -outer
            total = term if total is None else total + term
    if total is None:
        raise ValueError("the generalized Jacobi sum needs at least one argument")
    return total


def strict_identity_n2(model, a, b) -> NormalValuedForm:
    """d m2(a,b) + m2(da,b) + (-1)^{|a||b|} m2(db,a), printed strict form."""
    d = lambda x: differential(model, x)
    m2 = lambda x, y: multibracket(model, [x, y])
    out = d(m2(a, b)) + m2(d(a), b)
    third = m2(d(b), a)
    if a.parity and b.parity:
        third = -third
    return out + third


def strict_identity_n3(model, a, b, c) -> NormalValuedForm:
    """The printed seven-term strict identity for n = 3."""
    d = lambda x: differential(model, x)
    m2 = lambda x, y: multibracket(model, [x, y])
    m3 = lambda x, y, z: multibracket(model, [x, y, z])

    ab, bb, cb = a.parity, b.parity, c.parity
    total = d(m3(a, b, c))
    total = total + m2(m2(a, b), c)
    total = total + m2(m2(a, c), b).scale(sign(bb * cb))
    total = total + m2(m2(b, c), a).scale(sign(ab * (bb + cb)))
    total = total + m3(d(a), b, c)
    total = total + m3(d(b), a, c).scale(sign(ab * bb))
    total = total + m3(d(c), a, b).scale(sign((ab + bb) * cb))
    return total


# ---------------------------------------------------------------------------
# V-data checks
# ---------------------------------------------------------------------------


def lifted_bracket_vanishes(omega1: NormalValuedForm, omega2: NormalValuedForm) -> bool:
    """The image of the lift is abelian: the FN bracket of two lifted
    normal-valued forms must vanish identically."""
    return not fn_bracket(vertical_lift(omega1), vertical_lift(omega2))


def kernel_closed_under_bracket(model, K1: VectorValuedForm, K2: VectorValuedForm) -> bool:
    """Elements of ker P stay in ker P under the FN bracket."""
    if project_P(K1, model) or project_P(K2, model):
        raise ValueError("inputs must lie in the kernel of the projection")
    return not project_P(fn_bracket(K1, K2), model)


def maurer_cartan_chi() -> bool:
    """[chi, chi] = 0 for the parallel structure (identity exponential)."""
    c = ambient_chi()
    return not fn_bracket(c, c)
