"""G2 structure algebra on R^7, with Kahler and Spin(7) companions.

The fixed sign convention for the positive 3-form is

    phi = e^123 + e^145 + e^167 + e^246 - e^257 - e^347 - e^356

and its Hodge dual is always computed, never hand-entered.  The induced
metric follows the classical density construction: B(x,y) vol = i_x phi ^
i_y phi ^ phi, then g = c (det B)^{-1/9} B with the constant c pinned so
the standard form yields the identity metric (c = 6^{-2/9}).

The pointwise numeric lane (cayley_map, numeric_bracket_of_chi) runs the
exterior module's flat-map kernels (_wedge_terms, _insert_frame_terms,
_star_terms) on float coefficient maps, each keyed by (multi-index, ())
with the empty key of a constant.  The metric and the pullback of phi run
on Python ints, as the torus templates do: gram_matrix runs the same
kernels on phi's real coefficients at the point scaled by the lcm D of
their denominators, which gives D^3 B; _det takes det(D^3 B) = D^21 det B
by fraction-free (Bareiss) elimination; and pullback_3form runs
exterior.transform_terms on lcm-scaled A and phi, dividing each result
coefficient once.  Every float of a metric is an int quotient (b / D^3,
det / D^21), which Python rounds correctly, so it equals float() of the
exact rational.  The standard form is recognized as D^3 B = 6 D^3 I before
any determinant, so its metric needs no numpy; numpy is imported where the
float lane starts, and the exact suites never load it; no part of the
module loads `linalg`.
pullback_chi_tensor fixes in code the summation order of numpy's
unoptimized einsum, so its floats equal that einsum's bit for bit: it
visits only the nonzero rows of its tensor and adds one outer product per
nonzero entry.  Only cayley_map's einsums still take numpy's order.
_form_to_tensor sums nothing; it writes sign * value at every permutation
of each index in one assignment.

The G2 type projections are closed forms: each span piece of Lambda^2 =
Lambda^2_7 + Lambda^2_14 and Lambda^3 = Lambda^3_1 + Lambda^3_7 +
Lambda^3_27 is spanned by pairwise-orthogonal forms of one squared norm c
(i_{e_i} phi, phi, i_{e_i} *phi: c = 3, 7, 4), so its projection is
P(a) = c^{-1} sum_s <a, s> s, and the 14 and the 27 are the complements.
One fraction-free elimination on Python ints, `_eliminate`, gives _det,
and, on a constant real form's lcm-scaled terms, multisymplectic_check (a
pivot count) and `stabilizer` (a kernel), stab(psi) cap so(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby
from math import gcd, lcm

from .exterior import (
    CoefficientFunction,
    DegreeError,
    DifferentialForm,
    ModelSpace,
    VectorValuedForm,
    _add_terms,
    _insert_frame_terms,
    _star_terms,
    _wedge_terms,
    affine_space,
    contract_metric,
    flat_pairing,
    hodge_star,
    insert_frame,
    transform_terms,
    wedge,
)
from .multiindex import all_indices, index_position
from .scalars import _exact

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

    @cached_property
    def _metrics(self) -> dict:
        """The induced metrics built so far, by point."""
        return {}


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


def gram_matrix(phi: DifferentialForm, point) -> tuple[list[list[int]], int]:
    """Density matrix B with B(x,y) vol = i_x phi ^ i_y phi ^ phi, as the
    integer matrix D^3 B and the lcm D of the denominators of phi at the
    (rational) point.

    phi is frozen once to its real coefficients at the point, scaled by D
    to integers, and all 49 entries are formed on those integers.  A
    non-real coefficient raises NonPositiveFormError before any product:
    such a form induces no real metric.
    """
    const = phi.is_constant()
    values = {
        idx: c.constant_value() if const else c.eval_exact(point)
        for idx, c in phi.coefficients().items()
    }
    ints, D = _over_lcm(_real(values.values()))
    pt = {(idx, ()): n for idx, n in zip(values, ints)}
    contractions = [_insert_frame_terms(i, pt) for i in range(1, 8)]
    # B_ij = [i_i phi ^ (i_j phi ^ phi)]_vol = <i_i phi, *(i_j phi ^ phi)>
    duals = [_star_terms(_wedge_terms(cj, pt), 7) for cj in contractions]
    B = [
        [sum(v * w[idx] for idx, v in ci.items() if idx in w) for w in duals]
        for ci in contractions
    ]
    return B, D


def _real(values) -> list[Fraction]:
    """The real parts of a 3-form's coefficients, which must be real."""
    values = list(values)
    if any(x.imag for x in values):
        raise NonPositiveFormError("a 3-form with non-real coefficients induces no real metric")
    return [x.real for x in values]


def _over_lcm(values: list[Fraction]) -> tuple[list[int], int]:
    """Rationals as integers over the lcm D of their denominators: [x D], D."""
    D = lcm(*(x.denominator for x in values))
    return [x.numerator * (D // x.denominator) for x in values], D


def _eliminate(M: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination on Python ints, with Bareiss
    division (Math. Comp. 22, 1968): the reduced rows, the pivot column of
    each leading row and the sign of the row swaps.  Every other row goes
    x -> (p x - x_c y) // prev for the pivot p of row y and the pivot prev
    before it; each entry is then a minor of M, so the division is exact,
    and every pivot entry ends equal to the last pivot."""
    rows = [list(r) for r in M]
    pivots, sign, prev = [], 1, 1
    for c in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        r = next((i for i in range(top, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        if r != top:
            rows[top], rows[r] = rows[r], rows[top]
            sign = -sign
        y, p = rows[top], rows[top][c]
        rows = [
            row if i == top else [(p * x - row[c] * v) // prev for x, v in zip(row, y)]
            for i, row in enumerate(rows)
        ]
        pivots.append(c)
        prev = p
    return rows, pivots, sign


def _det(M: list[list[int]]) -> int:
    """Determinant of a square integer matrix: sign times the last pivot (1
    for the empty matrix), or 0 short of a pivot in every row."""
    rows, pivots, sign = _eliminate(M)
    return sign * (rows or [[1]])[-1][-1] if len(pivots) == len(rows) else 0


def _kernel(M: list[list[int]], n: int) -> list[list[int]]:
    """A primitive integer basis of {x in Z^n : M x = 0}: per free column f,
    x_f = p, the common pivot, and x_{c_i} = -rows[i][f], over their gcd
    signed to leave x_f > 0."""
    rows, pivots, _ = _eliminate(M)
    p = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        x = [p if c == f else 0 for c in range(n)]
        for row, c in zip(rows, pivots):
            x[c] = -row[f]
        g = gcd(*x) if p > 0 else -gcd(*x)
        basis.append([v // g for v in x])
    return basis


def metric_from_3form(structure: G2Structure, point=(0,) * 7) -> PointwiseMetric:
    """Metric induced by a positive 3-form at a point.

    Exact (identity) on the standard form; numerically normalized through
    (det B)^{-1/9} otherwise, since the ninth root leaves the rationals.
    Each structure builds its metric at a point once.
    """
    point = tuple(point)
    metrics = structure._metrics
    if point not in metrics:
        metrics[point] = _induced_metric(structure.phi, point)
    return metrics[point]


def _induced_metric(phi: DifferentialForm, point: tuple) -> PointwiseMetric:
    B, D = gram_matrix(phi, point)
    D3 = D**3
    if all(B[i][j] == (6 * D3 if i == j else 0) for i in range(7) for j in range(7)):
        matrix = tuple(tuple(int(i == j) for j in range(7)) for i in range(7))
        return PointwiseMetric(point, matrix, exact=True)
    det, D21 = _det(B), D3**7  # det B = det / D^21
    if det <= 0:
        raise NonPositiveFormError(f"density determinant {Fraction(det, D21)} is not positive")
    import numpy as np

    # int / int is correctly rounded, so each float is that of the exact
    # rational, as float(Fraction) gives it
    Bf = np.array([[b / D3 for b in row] for row in B])
    g = (6.0 ** (-2.0 / 9.0)) * (det / D21) ** (-1.0 / 9.0) * Bf
    eigs = np.linalg.eigvalsh(g)
    if eigs.min() <= 1e-9:
        raise NonPositiveFormError(f"induced metric is not positive definite: {eigs}")
    return PointwiseMetric(point, tuple(map(tuple, g.tolist())), exact=False)


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
    """Antisymmetric ndarray from constant flat coefficients (float): sign *
    value at every permutation of each index, in one assignment."""
    import numpy as np

    pos, slots, signs = _antisymmetric_slots(degree)
    rows = np.fromiter((pos[idx] for idx, _ in coeffs), np.intp, len(coeffs))
    T = np.zeros(7**degree)
    T[slots[rows]] = signs * np.fromiter(coeffs.values(), float, len(coeffs))[:, None]
    return T.reshape((7,) * degree)


@lru_cache(maxsize=None)
def _antisymmetric_slots(degree: int):
    """The position of each degree-index on R^7, the flat positions in a
    (7,)*degree array of its permutations, and the permutations' signs."""
    import numpy as np
    from itertools import combinations, permutations

    perms = list(permutations(range(degree)))
    pairs = list(combinations(range(degree), 2))
    signs = np.array([(-1.0) ** sum(p[a] > p[b] for a, b in pairs) for p in perms])
    slots = np.array([
        [np.ravel_multi_index([idx[p] - 1 for p in perm], (7,) * degree) for perm in perms]
        for idx in all_indices(7, degree)
    ], dtype=np.intp)
    return index_position(7, degree), slots, signs


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
    phi(Ax, Ay, Az); A given as a nested sequence of ints/Fractions.

    Runs on integers: A scaled by the lcm D of its denominators and phi's
    real coefficients by theirs, E; each coefficient of the result is
    divided by E D^3 once.  A non-real phi raises NonPositiveFormError.
    """
    space = structure.space
    entries, D = _over_lcm([Fraction(x) for row in A for x in row])
    rows = [entries[i : i + 7] for i in range(0, 49, 7)]
    terms = structure.phi.terms
    values, E = _over_lcm(_real(terms.values()))
    # pullback on the coframe: A*(e^i) = sum_a A[i][a] e^a, i.e. substitute
    scaled = transform_terms(space, dict(zip(terms, values)), rows)
    den = E * D**3
    pulled = {key: _exact(Fraction(n, den)) for key, n in scaled.items()}
    return G2Structure(space, DifferentialForm._of(space, 3, pulled))


def pullback_chi_tensor(A: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Natural action of A on a tangent-valued 3-form at a point:
    (A*T)(x,y,z) = A^{-1} T(Ax, Ay, Az).

    Rows (p,q,r) of T with a nonzero entry are visited in C order, and each
    sums ((A_pa A_qb) A_rc) Ainv_ds T_pqrs over its nonzero s, one 343 x 7
    outer product per s, before adding to the output: the order of the
    unoptimized einsum "pa,qb,rc,ds,pqrs".  One `np.nonzero(T)` lists every
    nonzero (p, q, r, s) in C order, so each row's entries are consecutive.
    """
    import numpy as np

    Ainv = np.linalg.inv(A)
    out = np.zeros(7**4)
    entries = zip(*(ix.tolist() for ix in np.nonzero(T)))
    for (p, q, r), row in groupby(entries, key=lambda e: e[:3]):
        ABC = ((A[p][:, None] * A[q]).ravel()[:, None] * A[r]).ravel()
        s, *more = [e[3] for e in row]
        acc = np.multiply.outer(ABC, Ainv[:, s]) * T[p, q, r, s]
        for s in more:
            acc += np.multiply.outer(ABC, Ainv[:, s]) * T[p, q, r, s]
        out += acc.ravel()
    return out.reshape((7,) * 4)


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
    """Float tensor of the exact chi of a constant structure (for code-path
    comparisons)."""
    import numpy as np

    X = chi(structure)
    C = np.zeros((7, 7, 7, 7))
    for s in range(1, 8):
        comp = {(idx, ()): float(v) for (idx, _), v in X.components[s - 1].terms.items()}
        C[:, :, :, s - 1] = _form_to_tensor(comp, 3)
    return C


# ---------------------------------------------------------------------------
# nondegeneracy and type decomposition
# ---------------------------------------------------------------------------


def _integer_terms(psi: DifferentialForm) -> dict:
    """A constant real form's terms {(multi-index, ()): int}, scaled by the
    lcm of their denominators, which changes no kernel or rank."""
    if not psi.is_constant() or any(x.imag for x in psi.terms.values()):
        raise ValueError("the integer algebra of forms expects constant real coefficients")
    ints, _ = _over_lcm([x.real for x in psi.terms.values()])
    return {(idx, ()): n for (idx, _), n in zip(psi.terms, ints)}


def _columns(maps: list[dict]) -> list[list[int]]:
    """The integer matrix whose columns are the flat maps."""
    keys = dict.fromkeys(key for m in maps for key in m)
    return [[m.get(key, 0) for m in maps] for key in keys]


def multisymplectic_check(psi: DifferentialForm) -> bool:
    """Whether v -> i_v psi is injective, for a constant real form: whether
    the matrix of the i_{e_i} psi has a pivot in every column."""
    terms, n = _integer_terms(psi), psi.space.dim
    _, pivots, _ = _eliminate(_columns([_insert_frame_terms(i, terms) for i in range(1, n + 1)]))
    return len(pivots) == n


def stabilizer(psi: DifferentialForm) -> list[list[list[int]]]:
    """A primitive integer basis of stab(psi) cap so(n), for a constant real
    form psi, as antisymmetric matrices: the `_kernel` of X -> X.psi on the
    E_ab - E_ba, a < b, where (E_ab - E_ba).psi = e^a ^ i_b psi - e^b ^ i_a psi."""
    terms, n = _integer_terms(psi), psi.space.dim
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    ins = {b: _insert_frame_terms(b, terms) for b in range(1, n + 1)}  # i_b psi
    e = lambda a: {((a,), ()): 1}  # e^a
    images = [_wedge_terms(e(b), ins[a], _wedge_terms(e(a), ins[b]), True) for a, b in pairs]
    gens = [dict(zip(pairs, x)) for x in _kernel(_columns(images), len(pairs))]
    span = range(1, n + 1)
    return [[[X.get((a, b), 0) - X.get((b, a), 0) for b in span] for a in span] for X in gens]


G2_COMPONENTS = {"2_7": (2, 0), "2_14": (2, 1), "3_1": (3, 0), "3_7": (3, 1), "3_27": (3, 2)}


@lru_cache(maxsize=None)
def _type_spans(space: ModelSpace, degree: int) -> list[tuple[list[DifferentialForm], int]]:
    """The spanning forms of the G2 type pieces of Lambda^2 (the 7) or
    Lambda^3 (the 1 and the 7) that are spans, each with the squared norm c
    its forms share: Lambda^2_7 = <i_{e_i} phi> (c = 3), Lambda^3_1 = <phi>
    (c = 7) and Lambda^3_7 = <i_{e_i} *phi> (c = 4).  Raises ValueError
    unless the forms of one degree are pairwise orthogonal, each of its
    span's norm."""
    phi = standard_phi(space).phi
    spans = (
        [([insert_frame(i, phi) for i in range(1, 8)], 3)]
        if degree == 2
        else [([phi], 7), ([insert_frame(i, hodge_star(phi)) for i in range(1, 8)], 4)]
    )
    forms = [(s, c) for span, c in spans for s in span]
    for i, (s, c) in enumerate(forms):
        for j, (t, _) in enumerate(forms[i:], i):
            if flat_pairing(s, t).constant_value() != (c if j == i else 0):
                raise ValueError(f"the G2 type spans are not orthonormal up to {c}: {s}, {t}")
    return spans


def g2_type_project(a: DifferentialForm, component: str) -> DifferentialForm:
    """Projection onto an irreducible G2 type component of a 2- or 3-form:
    P(a) = c^{-1} sum_s <a, s> s over the spanning forms s of a span piece,
    and a minus the span pieces' projections for the last piece."""
    if component not in G2_COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    degree, slot = G2_COMPONENTS[component]
    if a.degree != degree:
        raise DegreeError(f"component {component} needs degree {degree}")
    if a.space.dim != 7:
        raise ValueError("G2 projections need dimension 7")
    spans = _type_spans(a.space, degree)
    out = DifferentialForm.zero(a.space, degree)
    for forms, c in spans[slot : slot + 1] or spans:  # a last piece's complement: all spans
        for s in forms:
            out = out + s.mul_function(flat_pairing(a, s)).scale(Fraction(1, c))
    return out if slot < len(spans) else a - out


def projection_matrix_rank(component: str) -> int:
    """Rank of the projection onto a type component: its trace
    sum_I <P(e^I), e^I> over the frame basis."""
    space = affine_space(7)
    trace = 0
    for idx in all_indices(7, G2_COMPONENTS[component][0]):
        basis = DifferentialForm.coframe(space, idx)
        trace += flat_pairing(g2_type_project(basis, component), basis).constant_value()
    return trace


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
    phi8, star8 = (
        DifferentialForm._of(r8, a.degree, {(idx, (0,) * 8): v for (idx, _), v in a.terms.items()})
        for a in (phi7, hodge_star(phi7))
    )
    return wedge(DifferentialForm.coframe(r8, (8,)), phi8) + star8

