"""G2 structure algebra on R^7, with Kahler and Spin(7) companions.

The fixed sign convention for the positive 3-form is

    phi = e^123 + e^145 + e^167 + e^246 - e^257 - e^347 - e^356

and its Hodge dual is always computed, never hand-entered.  The induced
metric follows the classical density construction: B(x,y) vol = i_x phi ^
i_y phi ^ phi, then g = c (det B)^{-1/9} B with the constant c pinned so
the standard form yields the identity metric (c = 6^{-2/9}).

The pointwise numeric lane (cayley_map, numeric_bracket_of_chi) runs the
exterior module's flat-map kernels (_wedge_terms, _insert_frame_terms,
_star_terms) on float coefficient maps, and gram_matrix runs them on
constant exact scalars, each map keyed by (multi-index, ()) with the empty
key of a constant; only the scalar type differs from the exact lane.
numpy and the exact linear algebra are imported where the float lane and
the type decomposition start, so the exact suites never load them.
pullback_chi_tensor visits only the nonzero entries of its tensor and fixes
in code the summation order of numpy's unoptimized einsum, so its floats
equal that einsum's bit for bit; only cayley_map's einsums still take
numpy's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exterior import (
    CoefficientFunction,
    DegreeError,
    DifferentialForm,
    ModelSpace,
    VectorValuedForm,
    _add_term,
    _add_terms,
    _insert_frame_terms,
    _star_terms,
    _wedge_terms,
    affine_space,
    contract_metric,
    hodge_star,
    insert_frame,
    transform_terms,
    wedge,
)
from .multiindex import all_indices, index_position, space_dim
from .scalars import GaussianRational

PHI_TERMS = (
    ((1, 2, 3), 1),
    ((1, 4, 5), 1),
    ((1, 6, 7), 1),
    ((2, 4, 6), 1),
    ((2, 5, 7), -1),
    ((3, 4, 7), -1),
    ((3, 5, 6), -1),
)


class NonPositiveFormError(ValueError):
    """The 3-form fails to induce a positive metric at the point."""


@dataclass(frozen=True)
class G2Structure:
    space: ModelSpace
    phi: DifferentialForm

    def __post_init__(self):
        if self.space.dim != 7:
            raise ValueError("G2 structures live on 7-dimensional spaces")
        if self.phi.degree != 3:
            raise DegreeError("a G2 structure is a 3-form")


@dataclass(frozen=True)
class PointwiseMetric:
    """Induced metric at a point; exact entries when the flat calculation
    applies, IEEE doubles otherwise."""

    point: tuple
    matrix: tuple
    exact: bool

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.matrix])


def standard_phi(space: ModelSpace | None = None) -> G2Structure:
    """The standard positive 3-form in the fixed convention."""
    space = space or affine_space(7)
    if space.dim != 7:
        raise ValueError("the standard G2 form needs dimension 7")
    terms = {
        idx: _const(space, sign) for idx, sign in PHI_TERMS
    }
    return G2Structure(space, DifferentialForm(space, 3, terms))


def _const(space, value):
    return CoefficientFunction.constant(space, value)


def gram_matrix(phi: DifferentialForm, point) -> list[list[GaussianRational]]:
    """Exact density matrix B with B(x,y) vol = i_x phi ^ i_y phi ^ phi.

    phi is frozen once to constant exact scalars at the (rational) point,
    and all 49 entries are formed on those scalars.
    """
    const = phi.is_constant()
    pt = {
        (idx, ()): c.constant_value() if const else c.eval_exact(point)
        for idx, c in phi.coefficients().items()
    }
    contractions = [_insert_frame_terms(i, pt) for i in range(1, 8)]
    # B_ij = [i_i phi ^ (i_j phi ^ phi)]_vol = <i_i phi, *(i_j phi ^ phi)>
    duals = [_star_terms(_wedge_terms(cj, pt), 7) for cj in contractions]
    zero = GaussianRational(0)
    return [
        [sum((v * w[idx] for idx, v in ci.items() if idx in w), zero) for w in duals]
        for ci in contractions
    ]


def _det(M) -> GaussianRational:
    n = len(M)
    rows = [list(r) for r in M]
    det = GaussianRational(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return GaussianRational(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pv = rows[c][c]
        det = det * pv
        for i in range(c + 1, n):
            f = rows[i][c] / pv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def metric_from_3form(structure: G2Structure, point=(0,) * 7) -> PointwiseMetric:
    """Metric induced by a positive 3-form at a point.

    Exact (identity) on the standard form; numerically normalized through
    (det B)^{-1/9} otherwise, since the ninth root leaves the rationals.
    """
    B = gram_matrix(structure.phi, point)
    det = _det(B)
    if not det or det.im or det.re <= 0:
        raise NonPositiveFormError(f"density determinant {det} is not positive")
    six = GaussianRational(6)
    if all(
        B[i][j] == (six if i == j else GaussianRational(0))
        for i in range(7)
        for j in range(7)
    ):
        one = GaussianRational(1)
        zero = GaussianRational(0)
        matrix = tuple(
            tuple(one if i == j else zero for j in range(7)) for i in range(7)
        )
        return PointwiseMetric(tuple(point), matrix, exact=True)
    for row in B:
        for x in row:
            if x.im:
                raise NonPositiveFormError("density matrix is not real")
    import numpy as np

    Bf = np.array([[float(x.re) for x in row] for row in B])
    g = (6.0 ** (-2.0 / 9.0)) * float(det.re) ** (-1.0 / 9.0) * Bf
    eigs = np.linalg.eigvalsh(g)
    if eigs.min() <= 1e-9:
        raise NonPositiveFormError(f"induced metric is not positive definite: {eigs}")
    return PointwiseMetric(tuple(point), tuple(map(tuple, g.tolist())), exact=False)


def chi(structure: G2Structure) -> VectorValuedForm:
    """The cross-product-type tensor: metric contraction of the Hodge dual
    of phi.  Exact, for structures whose induced metric is the flat one."""
    metric = metric_from_3form(structure, (0,) * 7)
    if not metric.exact:
        raise NonPositiveFormError(
            "exact chi needs the flat induced metric; use cayley_map pointwise"
        )
    return contract_metric(hodge_star(structure.phi))


# ---------------------------------------------------------------------------
# pointwise numeric lane
# ---------------------------------------------------------------------------


def _form_to_tensor(coeffs: dict, degree: int) -> np.ndarray:
    """Antisymmetric ndarray from constant flat coefficients (float)."""
    import numpy as np

    T = np.zeros((7,) * degree)
    for (idx, _), val in coeffs.items():
        base = tuple(i - 1 for i in idx)
        for perm, sign in _perms_with_signs(degree):
            T[tuple(base[p] for p in perm)] = sign * val
    return T


@lru_cache(maxsize=None)
def _perms_with_signs(degree: int):
    from itertools import permutations

    out = []
    for perm in permutations(range(degree)):
        inv = sum(
            1
            for a in range(degree)
            for b in range(a + 1, degree)
            if perm[a] > perm[b]
        )
        out.append((perm, -1 if inv % 2 else 1))
    return tuple(out)


def _tensor_to_coeffs(T: np.ndarray, degree: int) -> dict:
    """Constant flat coefficients (float, zeros dropped) of an antisymmetric
    ndarray."""
    out = {}
    for idx in all_indices(7, degree):
        val = float(T[tuple(i - 1 for i in idx)])
        if val:
            out[idx, ()] = val
    return out


def cayley_map(structure: G2Structure, point=(0.0,) * 7) -> np.ndarray:
    """Pointwise chi for a (possibly non-flat) positive 3-form.

    Returns the (7,7,7,7) array T with T[a,b,c,:] the value on
    (e_a, e_b, e_c); computed in a metric-orthonormal frame and pushed back
    to standard coordinates.  Double precision.
    """
    import numpy as np

    phi_pt = {
        (idx, ()): coeff.eval_complex(point).real
        for idx, coeff in structure.phi.coefficients().items()
    }
    g = metric_from_3form(structure, _rationalize(point)).as_array()
    R = np.linalg.cholesky(g).T  # g = R^T R, R upper triangular
    F = np.linalg.inv(R)  # columns form a g-orthonormal, oriented frame

    P = _form_to_tensor(phi_pt, 3)
    PF = np.einsum("pa,qb,rc,pqr->abc", F, F, F, P)
    starF = _star_terms(_tensor_to_coeffs(PF, 3), 7)
    C = np.zeros((7, 7, 7, 7))
    for s in range(1, 8):
        # contraction with the metric: identity in the orthonormal frame
        C[:, :, :, s - 1] = _form_to_tensor(_insert_frame_terms(s, starF), 3)
    Finv = np.linalg.inv(F)
    T1 = np.einsum("pqrs,ds->pqrd", C, F)
    return np.einsum("pa,qb,rc,pqrd->abcd", Finv, Finv, Finv, T1)


def _rationalize(point):
    out = []
    for x in point:
        if isinstance(x, (int, Fraction)):
            out.append(x)
        else:
            out.append(Fraction(x).limit_denominator(10**9))
    return tuple(out)


def pullback_3form(A: np.ndarray, structure: G2Structure) -> G2Structure:
    """Exact pullback A*phi for a rational matrix A (A*phi)(x,y,z) =
    phi(Ax, Ay, Az); A given as a nested sequence of ints/Fractions."""
    space = structure.space
    rows = [
        [GaussianRational(Fraction(A[i][j])) for j in range(7)] for i in range(7)
    ]
    # pullback on the coframe: A*(e^i) = sum_a A[i][a] e^a, i.e. substitute
    terms = transform_terms(space, structure.phi.terms, rows)
    return G2Structure(space, DifferentialForm._of(space, 3, terms))


def pullback_chi_tensor(A: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Natural action of A on a tangent-valued 3-form at a point:
    (A*T)(x,y,z) = A^{-1} T(Ax, Ay, Az).

    Rows (p,q,r) of T with a nonzero entry are visited in C order, and each
    sums ((A_pa A_qb) A_rc) Ainv_ds T_pqrs over its nonzero s before adding
    to the output: the order of the unoptimized einsum "pa,qb,rc,ds,pqrs".
    """
    import numpy as np

    Ainv = np.linalg.inv(A)
    out = np.zeros((7, 7, 7, 7))
    for p, q, r in zip(*np.nonzero(T.any(axis=3))):
        ABC = (A[p][:, None, None] * A[q][None, :, None]) * A[r][None, None, :]
        acc = np.zeros((7, 7, 7, 7))
        for s in np.flatnonzero(T[p, q, r]):
            acc += (ABC[..., None] * Ainv[:, s]) * T[p, q, r, s]
        out += acc
    return out


def _chi_field_coeffs(structure: G2Structure, point) -> list[dict]:
    """Per-frame-direction sparse 3-form coefficients of the pointwise
    cross-product tensor at a float point."""
    T = cayley_map(structure, tuple(point))
    return [_tensor_to_coeffs(T[:, :, :, s], 3) for s in range(7)]


def numeric_bracket_of_chi(structure: G2Structure, point, h: float = 1e-5) -> float:
    """Largest component of [chi, chi] at a point, with derivatives taken by
    central finite differences.  A falsification probe: nonzero for
    structures that are not torsion-free."""
    point = tuple(float(x) for x in point)

    def field(m=None, step=0.0):
        p = list(point)
        if m is not None:
            p[m] += step
        return _chi_field_coeffs(structure, tuple(p))

    center = field()
    plus = [field(m, h) for m in range(7)]
    minus = [field(m, -h) for m in range(7)]

    def partial(m, comp):
        a, b = plus[m][comp], minus[m][comp]
        keys = set(a) | set(b)
        return {key: (a.get(key, 0.0) - b.get(key, 0.0)) / (2 * h) for key in keys}

    # d alpha = sum_m e^m ^ d_m alpha
    d_alpha = [{} for _ in range(7)]
    for i in range(7):
        for m in range(7):
            _add_terms(d_alpha[i], _wedge_terms({((m + 1,), ()): 1.0}, partial(m, i)))

    total = [{} for _ in range(7)]
    for i in range(7):
        alpha = center[i]
        for j in range(7):
            beta = center[j]
            # alpha_i ^ (d_i beta_j) into component j
            _add_terms(total[j], _wedge_terms(alpha, partial(i, j)))
            # -(d_j alpha_i) ^ beta_j into component i
            _add_terms(total[i], _wedge_terms(partial(j, i), beta), True)
            # odd degree: -(d alpha_i ^ iota_i beta_j) into j, -(iota_j alpha_i ^ d beta_j) into i
            _add_terms(total[j], _wedge_terms(d_alpha[i], _insert_frame_terms(i + 1, beta)), True)
            _add_terms(total[i], _wedge_terms(_insert_frame_terms(j + 1, alpha), d_alpha[j]), True)
    return max((abs(val) for bucket in total for val in bucket.values()), default=0.0)


def chi_tensor_exact(structure: G2Structure) -> np.ndarray:
    """Float tensor of the exact chi (for code-path comparisons)."""
    import numpy as np

    X = chi(structure)
    C = np.zeros((7, 7, 7, 7))
    for s in range(1, 8):
        comp = {
            (idx, ()): complex(c.constant_value()).real
            for idx, c in X.components[s - 1].coefficients().items()
        }
        C[:, :, :, s - 1] = _form_to_tensor(comp, 3)
    return C


# ---------------------------------------------------------------------------
# nondegeneracy and type decomposition
# ---------------------------------------------------------------------------


def multisymplectic_check(psi: DifferentialForm) -> bool:
    """Whether v -> i_v psi is injective (constant-coefficient forms)."""
    if not psi.is_constant():
        raise ValueError("multi-symplectic check expects constant coefficients")
    from . import linalg

    n = psi.space.dim
    if psi.degree < 1:
        return False
    pos = index_position(n, psi.degree - 1)
    rows = [[GaussianRational(0)] * n for _ in range(space_dim(n, psi.degree - 1))]
    for i in range(1, n + 1):
        for (idx, _), val in insert_frame(i, psi).terms.items():
            rows[pos[idx]][i - 1] = val
    return linalg.rank(rows) == n


@lru_cache(maxsize=None)
def _type_projections(degree: int):
    """Exact orthogonal projections onto the G2 type pieces of Lambda^2
    (7, 14) or Lambda^3 (1, 7, 27): Gram projections onto the spans
    Lambda^2_7 = <i_{e_i} phi>, Lambda^3_1 = <phi> and Lambda^3_7 =
    <i_{e_i} *phi>, and I minus these for the last piece."""
    from . import linalg

    space = affine_space(7)
    phi = standard_phi(space).phi
    spans = (
        [[insert_frame(i, phi) for i in range(1, 8)]]
        if degree == 2
        else [[phi], [insert_frame(i, hodge_star(phi)) for i in range(1, 8)]]
    )
    pos = index_position(7, degree)
    dim = space_dim(7, degree)
    zero, one = GaussianRational(0), GaussianRational(1)

    def col(form):
        v = [zero] * dim
        for (idx, _), val in form.terms.items():  # constant: one key per index
            v[pos[idx]] = val
        return v

    def gram_projection(forms):
        B = linalg.columns_from_vectors([col(f) for f in forms])
        Bt = linalg.transpose(B)
        Ginv = linalg.invert(linalg.matmul(Bt, B, zero))
        return linalg.matmul(linalg.matmul(B, Ginv, zero), Bt, zero)

    parts = [gram_projection(forms) for forms in spans]
    rest = [
        [(one if i == j else zero) - sum((P[i][j] for P in parts), zero) for j in range(dim)]
        for i in range(dim)
    ]
    return (*parts, rest)


G2_COMPONENTS = {"2_7": (2, 0), "2_14": (2, 1), "3_1": (3, 0), "3_7": (3, 1), "3_27": (3, 2)}


def g2_type_project(a: DifferentialForm, component: str) -> DifferentialForm:
    """Projection onto an irreducible G2 type component of a 2- or 3-form."""
    if component not in G2_COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    degree, slot = G2_COMPONENTS[component]
    if a.degree != degree:
        raise DegreeError(f"component {component} needs degree {degree}")
    if a.space.dim != 7:
        raise ValueError("G2 projections need dimension 7")
    return apply_constant_matrix(a, _type_projections(degree)[slot], degree)


def apply_constant_matrix(a: DifferentialForm, matrix, degree_out: int) -> DifferentialForm:
    """Apply an exact constant operator matrix to a form's coefficients."""
    out_idx = all_indices(a.space.dim, degree_out)
    pos_in = index_position(a.space.dim, a.degree)
    out: dict = {}
    for (idx, key), coeff in a.terms.items():
        c = pos_in[idx]
        for r, target in enumerate(out_idx):
            entry = matrix[r][c]
            if not entry:
                continue
            _add_term(out, (target, key), coeff * entry)
    return DifferentialForm._of(a.space, degree_out, out)


def projection_matrix_rank(component: str) -> int:
    from . import linalg

    degree, slot = G2_COMPONENTS[component]
    return linalg.rank(list(_type_projections(degree)[slot]))


# ---------------------------------------------------------------------------
# companion structures
# ---------------------------------------------------------------------------


def kahler_form(m: int) -> DifferentialForm:
    """omega = sum_i e^{2i-1,2i} on R^{2m}."""
    space = affine_space(2 * m)
    terms = {
        (2 * i - 1, 2 * i): _const(space, 1) for i in range(1, m + 1)
    }
    return DifferentialForm(space, 2, terms)


def spin7_form() -> DifferentialForm:
    """The parallel 4-form e^8 ^ phi + *7(phi) on R^8 in the fixed phi
    convention."""
    r8 = affine_space(8)
    phi7 = standard_phi().phi
    phi8 = DifferentialForm(
        r8, 3, {idx: _const(r8, c.constant_value()) for idx, c in phi7.coefficients().items()}
    )
    star7 = hodge_star(phi7)
    star7_8 = DifferentialForm(
        r8, 4, {idx: _const(r8, c.constant_value()) for idx, c in star7.coefficients().items()}
    )
    e8 = DifferentialForm.coframe(r8, (8,))
    return wedge(e8, phi8) + star7_8


def auxiliary_structures() -> dict:
    """The companion parallel forms used by the Maurer-Cartan suites."""
    return {
        "kahler_r4": kahler_form(2),
        "kahler_r6": kahler_form(3),
        "spin7": spin7_form(),
    }
