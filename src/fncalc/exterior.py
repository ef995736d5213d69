"""Exact exterior calculus on flat model spaces R^n and T^n.

Scalar coefficients are finite exact sums: polynomials in the coordinates on
the affine flavor, finite Fourier sums exp(i<k,x>) on the toroidal flavor.
A coefficient function is a sparse map from keys (exponent tuples, affine;
frequency vectors, toroidal) to exact scalars, which are plain ints for real
integers and Gaussian rationals otherwise (the canonical rule of
`scalars`): the validating constructors and `scale` bring every value to
that form, and the kernels keep it, since they combine values only by +, *,
unary - and truth.  Differential forms are
one flat sparse map {(multi-index, key): scalar} over strictly increasing
multi-indices; `DifferentialForm.coefficients()` groups it into the scalar
field of each index on demand.  Tangent-valued forms are tuples of
component forms K = sum_i alpha_i (x) e_i in the global orthonormal frame.

All values are immutable after construction and all operations are pure.
Their vector-space algebra (+, -, scale, truth, ==, hash, immutability) is
written once, in `_Sparse` for the term maps and in `_Components` for the
frame-indexed tuples; each value type adds only its validating constructor,
the tags that equality compares and its operand-mismatch check.
The public constructors validate their input and prune zero coefficients;
the form kernels are single loops over flat maps (`_wedge_terms`,
`_insert_frame_terms`, `_star_terms`, `_deriv_terms`, `_d_terms`), which
accumulate through `_add_term` and build no intermediate value, and the
operators wrap their results with the trusted constructors
`CoefficientFunction._of` and `DifferentialForm._of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

from .multiindex import (
    all_indices,
    check_multi_index,
    complement_sign,
    insertion_terms,
    merge_sign,
)
from .scalars import GaussianRational, _exact


class SpaceMismatch(ValueError):
    """Operands live on different model spaces."""


class DegreeError(ValueError):
    """Operation applied at a contractually invalid form degree."""


AFFINE = "affine"
TOROIDAL = "toroidal"


@dataclass(frozen=True)
class ModelSpace:
    """Flat R^n (affine) or T^n = R^n/2piZ^n (toroidal) with the identity
    metric and standard orientation e^1^...^e^n."""

    dim: int
    flavor: str = AFFINE

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("model space dimension must be >= 1")
        if self.flavor not in (AFFINE, TOROIDAL):
            raise ValueError(f"unknown flavor {self.flavor!r}")

    @property
    def is_affine(self) -> bool:
        return self.flavor == AFFINE

    def __str__(self) -> str:
        return f"{'R' if self.is_affine else 'T'}^{self.dim}"


def affine_space(n: int) -> ModelSpace:
    return ModelSpace(n, AFFINE)


def torus_space(n: int) -> ModelSpace:
    return ModelSpace(n, TOROIDAL)


def _same_space(a, b) -> None:
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatch(f"mixed model spaces {a.space} and {b.space}")


def _add_term(out: dict, key, val) -> None:
    """Add val to out[key] in a sparse map, dropping the key when the sum is
    zero so that sparse maps stay canonical."""
    old = out.get(key)
    new = val if old is None else old + val
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def _add_terms(out: dict, terms: dict, negate: bool = False) -> None:
    """Add (or subtract) a sparse map into out, term by term in its order."""
    for key, val in terms.items():
        _add_term(out, key, -val if negate else val)


class _Sparse:
    """Vector-space algebra of a sparse map `terms` from keys to nonzero
    values.  A subclass gives the tags that equality compares (`_tags`),
    the check that raises for an operand with other tags (`_check`) and
    its trusted constructor over the same tags (`_like`)."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        _add_terms(out, other.terms)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _exact(c)
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._tags() == other._tags() and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((*self._tags(), frozenset(self.terms.items())))


class _Components:
    """Vector-space algebra of a tuple `components`, one value per frame
    direction.  A subclass gives the tags that equality compares and that
    precede the components in its validating constructor (`_tags`), and the
    check that raises for an operand with other tags (`_check`)."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return type(self)(
            *self._tags(), [a + b for a, b in zip(self.components, other.components)]
        )

    def __neg__(self):
        return type(self)(*self._tags(), [-a for a in self.components])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return type(self)(*self._tags(), [a.scale(c) for a in self.components])

    def __bool__(self) -> bool:
        return any(self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._tags() == other._tags() and self.components == other.components

    def __hash__(self) -> int:
        return hash((*self._tags(), self.components))


class CoefficientFunction(_Sparse):
    """Exact scalar function: finite monomial or Fourier sum.

    Keys are exponent tuples (affine) or integer frequency vectors
    (toroidal), values exact scalars in canonical form; zero coefficients
    are pruned so equality is canonical.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: ModelSpace, terms: dict | None = None):
        pruned = {}
        if terms:
            for key, val in terms.items():
                val = _exact(val)
                if not val:
                    continue
                if len(key) != space.dim:
                    raise ValueError(f"key {key} has wrong arity for {space}")
                if space.is_affine and any(e < 0 for e in key):
                    raise ValueError(f"negative exponent in monomial {key}")
                pruned[key] = val
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", pruned)

    @classmethod
    def _of(cls, space: ModelSpace, terms: dict) -> "CoefficientFunction":
        """Trusted constructor: terms are stored as given, already canonical."""
        f = object.__new__(cls)
        object.__setattr__(f, "space", space)
        object.__setattr__(f, "terms", terms)
        return f

    def _like(self, terms: dict) -> "CoefficientFunction":
        return CoefficientFunction._of(self.space, terms)

    def _tags(self) -> tuple:
        return (self.space,)

    _check = _same_space

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: ModelSpace) -> "CoefficientFunction":
        return cls(space, {})

    @classmethod
    def constant(cls, space: ModelSpace, value) -> "CoefficientFunction":
        return cls(space, {(0,) * space.dim: value})

    @classmethod
    def coordinate(cls, space: ModelSpace, j: int) -> "CoefficientFunction":
        """The coordinate function x^j (affine flavor only)."""
        if not space.is_affine:
            raise ValueError("coordinate functions exist on the affine flavor only")
        key = tuple(1 if i == j else 0 for i in range(1, space.dim + 1))
        return cls(space, {key: 1})

    @classmethod
    def fourier(cls, space: ModelSpace, freq: tuple[int, ...], value=1) -> "CoefficientFunction":
        """The basis function value * exp(i<freq, x>) (toroidal flavor)."""
        if space.is_affine:
            raise ValueError("Fourier terms exist on the toroidal flavor only")
        return cls(space, {tuple(freq): value})

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, CoefficientFunction):
            return NotImplemented
        _same_space(self, other)
        out = _wedge_terms(_scalar_terms(self), _scalar_terms(other))
        return self._like({key: val for (_, key), val in out.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def deriv(self, j: int) -> "CoefficientFunction":
        """Exact coordinate derivative d/dx^j (1-based)."""
        if not 1 <= j <= self.space.dim:
            raise ValueError(f"coordinate index {j} out of range")
        out = _deriv_terms(_scalar_terms(self), j, self.space.is_affine)
        return self._like({key: val for (_, key), val in out.items()})

    # -- queries -----------------------------------------------------------

    def is_constant(self) -> bool:
        zero_key = (0,) * self.space.dim
        return all(k == zero_key for k in self.terms)

    def constant_value(self) -> "int | GaussianRational":
        if not self.is_constant():
            raise ValueError("coefficient function is not constant")
        return self.terms.get((0,) * self.space.dim, 0)

    def eval_exact(self, point) -> "int | GaussianRational":
        """Exact evaluation at a rational point (affine flavor only)."""
        if not self.space.is_affine:
            raise ValueError("exact evaluation requires the affine flavor")
        coords = [_exact(c) for c in point]
        total = 0
        for key, val in self.terms.items():
            term = val
            for c, e in zip(coords, key):
                for _ in range(e):
                    term = term * c
            total = total + term
        return total

    def eval_complex(self, point) -> complex:
        """Numeric evaluation at a float point, both flavors."""
        import cmath

        total = 0j
        if self.space.is_affine:
            for key, val in self.terms.items():
                term = complex(val)
                for c, e in zip(point, key):
                    term *= c ** e
                total += term
        else:
            for key, val in self.terms.items():
                phase = sum(k * c for k, c in zip(key, point))
                total += complex(val) * cmath.exp(1j * phase)
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            bits.append(f"{self.terms[key]}*{key}")
        return " + ".join(bits)


class DifferentialForm(_Sparse):
    """Sparse exact differential form of explicit degree.

    `terms` is one flat map {(multi-index, key): nonzero scalar}, the key
    being a coefficient-function key; the validating constructor takes the
    nested {multi-index: CoefficientFunction} map and flattens it.  The
    degree is stored, never inferred, so the zero form of each degree is
    well defined; degrees above the space dimension are allowed and force
    the zero form (wedge products land there).
    """

    __slots__ = ("space", "degree", "terms")

    def __init__(self, space: ModelSpace, degree: int, terms: dict | None = None):
        if degree < 0:
            raise DegreeError(f"negative form degree {degree}")
        flat = {}
        for idx, coeff in (terms or {}).items():
            if not isinstance(coeff, CoefficientFunction):
                raise TypeError("coefficients must be CoefficientFunction values")
            if degree > space.dim:
                if coeff:
                    raise DegreeError(f"nonzero term of degree {degree} on {space}")
                continue
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index {idx} does not match degree {degree}")
            check_multi_index(idx, space.dim)
            if coeff.space != space:
                raise SpaceMismatch("coefficient on a different model space")
            for key, val in coeff.terms.items():
                flat[idx, key] = val
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", flat)

    @classmethod
    def _of(cls, space: ModelSpace, degree: int, terms: dict) -> "DifferentialForm":
        """Trusted constructor: flat terms are stored as given, already canonical."""
        a = object.__new__(cls)
        object.__setattr__(a, "space", space)
        object.__setattr__(a, "degree", degree)
        object.__setattr__(a, "terms", terms)
        return a

    def _like(self, terms: dict) -> "DifferentialForm":
        return DifferentialForm._of(self.space, self.degree, terms)

    def _tags(self) -> tuple:
        return (self.space, self.degree)

    def _check(self, other: "DifferentialForm") -> None:
        _same_space(self, other)
        if self.degree != other.degree:
            raise DegreeError(f"cannot add degrees {self.degree} and {other.degree}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: ModelSpace, degree: int) -> "DifferentialForm":
        return cls(space, degree, {})

    @classmethod
    def from_scalar(cls, f: CoefficientFunction) -> "DifferentialForm":
        return cls(f.space, 0, {(): f})

    @classmethod
    def unit(cls, space: ModelSpace) -> "DifferentialForm":
        return cls.from_scalar(CoefficientFunction.constant(space, 1))

    @classmethod
    def coframe(cls, space: ModelSpace, idx: tuple[int, ...], coeff=None) -> "DifferentialForm":
        """Basis form c * e^idx with constant c (default 1)."""
        idx = tuple(idx)
        f = CoefficientFunction.constant(space, 1 if coeff is None else coeff)
        return cls(space, len(idx), {idx: f})

    # -- linear structure ----------------------------------------------------

    def coefficients(self) -> dict:
        """The scalar field of each index, {multi-index: CoefficientFunction},
        grouped from the flat terms on each call."""
        grouped: dict = {}
        for (idx, key), val in self.terms.items():
            grouped.setdefault(idx, {})[key] = val
        return {idx: CoefficientFunction._of(self.space, t) for idx, t in grouped.items()}

    def mul_function(self, f: CoefficientFunction) -> "DifferentialForm":
        terms = _wedge_terms(self.terms, _scalar_terms(f))
        return DifferentialForm._of(self.space, self.degree, terms)

    def is_constant(self) -> bool:
        return not any(any(key) for _, key in self.terms)

    def __repr__(self) -> str:
        from .grammar import serialize_form

        return f"<{self.degree}-form {serialize_form(self)!r} on {self.space}>"


class VectorField(_Components):
    """Exact vector field X = sum_i X^i e_i."""

    __slots__ = ("space", "components")

    def __init__(self, space: ModelSpace, components):
        components = tuple(components)
        if len(components) != space.dim:
            raise ValueError("component count must equal the space dimension")
        for f in components:
            if f.space is not space and f.space != space:
                raise SpaceMismatch("component on a different model space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "components", components)

    def _tags(self) -> tuple:
        return (self.space,)

    _check = _same_space

    @classmethod
    def zero(cls, space: ModelSpace) -> "VectorField":
        return cls(space, [CoefficientFunction.zero(space)] * space.dim)

    @classmethod
    def frame(cls, space: ModelSpace, i: int) -> "VectorField":
        """The constant frame field e_i (1-based)."""
        comps = [CoefficientFunction.zero(space)] * space.dim
        comps[i - 1] = CoefficientFunction.constant(space, 1)
        return cls(space, comps)


class VectorValuedForm(_Components):
    """Tangent-bundle-valued form K = sum_i alpha_i (x) e_i.

    Components are degree-k forms indexed by the frame direction they are
    tensored with; the degree-0 case is interconvertible with VectorField.
    """

    __slots__ = ("space", "degree", "components")

    def __init__(self, space: ModelSpace, degree: int, components):
        components = tuple(components)
        if len(components) != space.dim:
            raise ValueError("component count must equal the space dimension")
        for a in components:
            if a.space is not space and a.space != space:
                raise SpaceMismatch("component on a different model space")
            if a.degree != degree:
                raise DegreeError("components must share the stated degree")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", components)

    def _tags(self) -> tuple:
        return (self.space, self.degree)

    def _check(self, other: "VectorValuedForm") -> None:
        _same_space(self, other)
        if self.degree != other.degree:
            raise DegreeError("cannot add tangent-valued forms of different degrees")

    @classmethod
    def zero(cls, space: ModelSpace, degree: int) -> "VectorValuedForm":
        return cls(space, degree, [DifferentialForm.zero(space, degree)] * space.dim)

    @classmethod
    def decomposable(cls, form: DifferentialForm, i: int) -> "VectorValuedForm":
        """form (x) e_i."""
        comps = [DifferentialForm.zero(form.space, form.degree)] * form.space.dim
        comps[i - 1] = form
        return cls(form.space, form.degree, comps)

    @classmethod
    def from_vector_field(cls, X: VectorField) -> "VectorValuedForm":
        return cls(
            X.space, 0, [DifferentialForm.from_scalar(f) for f in X.components]
        )

    def to_vector_field(self) -> VectorField:
        if self.degree != 0:
            raise DegreeError("only degree-0 tangent-valued forms are vector fields")
        zero = CoefficientFunction.zero(self.space)
        return VectorField(self.space, [a.coefficients().get((), zero) for a in self.components])

    def __repr__(self) -> str:
        return f"<{self.degree}-form with values in T{self.space}>"


# ---------------------------------------------------------------------------
# first-order and algebraic operators
# ---------------------------------------------------------------------------


def _partial(key: tuple, pos: int, affine: bool) -> tuple:
    """d/dx^{pos+1} of the basis function of a key with key[pos] != 0, as
    (new key, factor): e x^(e-1) for x^e, i k exp(i<k,x>) for exp(i<k,x>);
    the affine factor is the int e."""
    e = key[pos]
    if affine:
        return key[:pos] + (e - 1,) + key[pos + 1:], e
    return key, GaussianRational._raw(0, e, 1)


def _scalar_terms(f: CoefficientFunction) -> dict:
    """A scalar function as the flat terms of a 0-form."""
    return {((), key): val for key, val in f.terms.items()}


def _wedge_terms(a: dict, b: dict, out: dict | None = None, negate=False) -> dict:
    """Exterior product of flat {(multi-index, key): scalar} maps, added
    (or subtracted, when negate) into out.

    Keys add as basis functions multiply, in both flavors; constant maps
    carry the empty key (), so both factors' keys are empty or neither is.
    The scalars need only +, *, unary - and truth, so the same kernel
    serves forms, constant exact scalars and floats.
    """
    out = {} if out is None else out
    for (i1, k1), c1 in a.items():
        for (i2, k2), c2 in b.items():
            ms = merge_sign(i1, i2)
            if ms is None:
                continue
            sign, merged = ms
            val = c1 * c2
            key = tuple(map(add, k1, k2)) if k1 else k2
            _add_term(out, (merged, key), val if (sign > 0) != negate else -val)
    return out


def _insert_frame_terms(i: int, terms: dict) -> dict:
    """Interior product iota_{e_i} of a flat {(multi-index, key): scalar} map."""
    out: dict = {}
    for (idx, key), val in terms.items():
        for j, sign, rest in insertion_terms(idx):
            if j == i:
                _add_term(out, (rest, key), val if sign > 0 else -val)
    return out


def _insert_terms(parts: list, terms: dict, out: dict | None = None) -> dict:
    """sum_i part_i ^ iota_{e_i} of flat maps: the insertion of the
    tangent-valued form whose frame components are the flat maps parts."""
    out = {} if out is None else out
    for i, part in enumerate(parts, 1):
        if part:
            _wedge_terms(part, _insert_frame_terms(i, terms), out)
    return out


def _star_terms(terms: dict, n: int) -> dict:
    """Hodge star of a flat {(multi-index, key): scalar} map on R^n or T^n."""
    out: dict = {}
    for (idx, key), val in terms.items():
        sign, comp = complement_sign(idx, n)
        _add_term(out, (comp, key), val if sign > 0 else -val)
    return out


def _deriv_terms(terms: dict, j: int, affine: bool) -> dict:
    """Termwise d/dx^j of a flat form map; no two terms collide."""
    out = {}
    pos = j - 1
    for (idx, key), val in terms.items():
        if key[pos]:
            new, factor = _partial(key, pos, affine)
            out[idx, new] = val * factor
    return out


def _d_terms(terms: dict, affine: bool) -> dict:
    """Exterior derivative of a flat form map: sum_j e^j ^ d/dx^j."""
    out: dict = {}
    for (idx, key), val in terms.items():
        for pos, e in enumerate(key):
            if e and (ms := merge_sign((pos + 1,), idx)):
                sign, merged = ms
                new, factor = _partial(key, pos, affine)
                val_j = val * factor
                _add_term(out, (merged, new), val_j if sign > 0 else -val_j)
    return out


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Graded-commutative exterior product."""
    _same_space(a, b)
    degree = a.degree + b.degree
    if degree > a.space.dim:
        return DifferentialForm.zero(a.space, degree)
    return DifferentialForm._of(a.space, degree, _wedge_terms(a.terms, b.terms))


def ext_deriv(a: DifferentialForm) -> DifferentialForm:
    """Exterior derivative; raises degree by one, d o d = 0."""
    return DifferentialForm._of(a.space, a.degree + 1, _d_terms(a.terms, a.space.is_affine))


def insert_vector(K: VectorField | VectorValuedForm, a: DifferentialForm) -> DifferentialForm:
    """Insertion of a vector field X, iota_X (a derivation of degree -1), or
    of a tangent-valued k-form, iota_{kappa (x) X} = kappa ^ iota_X (a
    derivation of degree k - 1)."""
    if isinstance(K, VectorField):
        K = VectorValuedForm.from_vector_field(K)
    _same_space(K, a)
    terms = _insert_terms([alpha.terms for alpha in K.components], a.terms)
    return DifferentialForm._of(a.space, max(K.degree + a.degree - 1, 0), terms)


def insert_frame(i: int, a: DifferentialForm) -> DifferentialForm:
    """iota_{e_i} for a constant frame direction (fast path)."""
    return DifferentialForm._of(a.space, max(a.degree - 1, 0), _insert_frame_terms(i, a.terms))


def coefficient_deriv(a: DifferentialForm, j: int) -> DifferentialForm:
    """Termwise coordinate derivative = Lie derivative along the frame
    field e_j."""
    if not 1 <= j <= a.space.dim:
        raise ValueError(f"coordinate index {j} out of range")
    return DifferentialForm._of(a.space, a.degree, _deriv_terms(a.terms, j, a.space.is_affine))


def hodge_star(a: DifferentialForm) -> DifferentialForm:
    """Hodge star in the orthonormal coframe, a ^ *b = <a,b> vol.

    Acts on the frame indices only; coefficient keys pass through
    unchanged in both flavors.
    """
    n = a.space.dim
    if a.degree > n:
        raise DegreeError(f"cannot star a degree-{a.degree} form on {a.space}")
    return DifferentialForm._of(a.space, n - a.degree, _star_terms(a.terms, n))


def formal_adjoint(op, a: DifferentialForm) -> DifferentialForm:
    """(-1)^{n(l+1)+1} * op * on l-forms: the formal adjoint of d, and of
    a parallel-form differential L of degree 3, whose printed sign
    (-1)^{n(n-l)+1} is the same since n(l+1) - n(n-l) = n(2l+1-n) is even."""
    n, l = a.space.dim, a.degree
    out = hodge_star(op(hodge_star(a)))
    return -out if (n * (l + 1) + 1) % 2 else out


def codifferential(a: DifferentialForm) -> DifferentialForm:
    """Formal adjoint of d on l-forms."""
    if a.degree == 0:
        return DifferentialForm.zero(a.space, 0)
    if a.degree > a.space.dim:
        return DifferentialForm.zero(a.space, a.degree - 1)
    return formal_adjoint(ext_deriv, a)


def laplacian(a: DifferentialForm) -> DifferentialForm:
    """Hodge Laplacian d d* + d* d."""
    second = codifferential(ext_deriv(a))
    if a.degree == 0:
        return second
    return ext_deriv(codifferential(a)) + second


def contract_metric(psi: DifferentialForm) -> VectorValuedForm:
    """Contraction with the flat metric: sum_i (iota_{e_i} psi) (x) e_i,
    lowering the degree by one."""
    if psi.degree == 0:
        raise DegreeError("metric contraction needs a form of degree >= 1")
    comps = [insert_frame(i, psi) for i in range(1, psi.space.dim + 1)]
    return VectorValuedForm(psi.space, psi.degree - 1, comps)


def sharp(alpha: DifferentialForm) -> VectorField:
    """Musical isomorphism on 1-forms in the orthonormal frame."""
    if alpha.degree != 1:
        raise DegreeError("sharp applies to 1-forms")
    comps = [CoefficientFunction.zero(alpha.space)] * alpha.space.dim
    for (i,), coeff in alpha.coefficients().items():
        comps[i - 1] = coeff
    return VectorField(alpha.space, comps)


def flat(X: VectorField) -> DifferentialForm:
    """Musical isomorphism from vector fields to 1-forms."""
    return DifferentialForm(
        X.space, 1, {(i,): f for i, f in enumerate(X.components, start=1) if f}
    )


def evaluate(a: DifferentialForm, vectors) -> CoefficientFunction:
    """a(X_1, ..., X_p) by iterated insertion."""
    if len(vectors) != a.degree:
        raise DegreeError(f"degree-{a.degree} form takes {a.degree} arguments")
    current = a
    for X in vectors:
        current = insert_vector(X, current)
    return current.coefficients().get((), CoefficientFunction.zero(a.space))


def flat_pairing(a: DifferentialForm, b: DifferentialForm) -> CoefficientFunction:
    """Bilinear coefficient pairing <a,b> = sum_I a_I b_I (no conjugation),
    the pairing for which a ^ *b = <a,b> vol."""
    _same_space(a, b)
    if a.degree != b.degree:
        raise DegreeError("pairing needs equal degrees")
    out: dict = {}
    other = b.coefficients()
    for idx, coeff in a.coefficients().items():
        if idx in other:
            _add_terms(out, (coeff * other[idx]).terms)
    return CoefficientFunction._of(a.space, out)


def volume_form(space: ModelSpace) -> DifferentialForm:
    return DifferentialForm.coframe(space, tuple(range(1, space.dim + 1)))


def transform_terms(space: ModelSpace, terms: dict, matrix) -> dict:
    """Re-expand flat form terms in a new constant coframe f^1..f^n.

    matrix[i][b] gives e^{i+1} = sum_b matrix[i][b] f^{b+1} (entries exact
    scalars, or ints with int coefficients).  The coefficient of f^A in the
    output is sum_I c_I det(M[I, A]), and the minors det(M[I, A]) are the
    coefficients of the wedge of the rows of M indexed by I, constant maps
    with the empty key; the empty index's minor is 1.
    """
    n = space.dim
    rows = [{((b,), ()): x for b, x in enumerate(row, start=1) if x} for row in matrix]
    out: dict = {}
    minors: dict = {}  # of each index, shared by its keys
    for (idx, key), coeff in terms.items():
        if idx not in minors:
            first, *rest = [rows[i - 1] for i in idx] or [{((), ()): 1}]
            minors[idx] = reduce(_wedge_terms, rest, first)
        for target in all_indices(n, len(idx)):
            det = minors[idx].get((target, ()))
            if det is not None:
                _add_term(out, (target, key), coeff * det)
    return out
