"""Reference lanes for the tests: the slow, independent derivations that
each fast lane of `fncalc` is compared against.

* The field lane: Gaussian elimination over the exact scalars (ints and
  Gaussian rationals), with the dense products and shapes it needs.
* The honest torus lane: per-mode blocks assembled from the exact maps on
  forms that `operators` lists once (d, d*, L, L*, the Laplacian), the
  per-mode anticommutation identities from direct matrix products, and
  the 1-form kernel characterization through the Cartan formula.
* The orbit certificate one stabilizer generator at a time, against which
  the stacked `ModeCalculus.orbit_certified` is held.
* `lie_vector_form`, the Cartan formula L_X = iota_X d + d iota_X, the
  oracle for `nijenhuis_lie` along a vector field.
* The Gram projections onto the G2 type pieces, inverted in the field
  lane, against which the closed-form `g2.g2_type_project` is held.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial
from math import lcm

import numpy as np

from fncalc import linalg
from fncalc.bracket import nijenhuis_lie
from fncalc.exterior import (
    CoefficientFunction,
    DifferentialForm,
    VectorField,
    _add_term,
    _same_space,
    affine_space,
    codifferential,
    contract_metric,
    ext_deriv,
    formal_adjoint,
    hodge_star,
    insert_frame,
    insert_vector,
    laplacian,
    sharp,
)
from fncalc.g2 import G2_COMPONENTS, stabilizer, standard_phi
from fncalc.multiindex import all_indices, index_position, space_dim
from fncalc.scalars import ONE, GaussianRational
from fncalc.torus import N, STEP, T7, _adjoint, _assemble, _domain

# ---------------------------------------------------------------------------
# field lane (exact scalar entries: ints and Gaussian rationals)
# ---------------------------------------------------------------------------

Matrix = list  # list of rows; rows are lists of entries


def identity(n: int, one, zero) -> Matrix:
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = one
    return out


def shape(M: Matrix) -> tuple[int, int]:
    return len(M), len(M[0]) if M else 0


def matmul(A: Matrix, B: Matrix, zero) -> Matrix:
    ma, na = shape(A)
    mb, nb = shape(B)
    if na != mb:
        raise ValueError(f"shape mismatch {ma}x{na} @ {mb}x{nb}")
    out = []
    for i in range(ma):
        row_a = A[i]
        row = []
        for j in range(nb):
            acc = zero
            for k in range(na):
                a = row_a[k]
                if a:
                    acc = acc + a * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def transpose(M: Matrix) -> Matrix:
    m, n = shape(M)
    return [[M[i][j] for i in range(m)] for j in range(n)]


def conjugate_transpose(M: Matrix) -> Matrix:
    m, n = shape(M)
    return [[M[i][j].conjugate() for i in range(m)] for j in range(n)]


def rref(M: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over the Gaussian rationals.

    Returns (R, pivot_columns); exact: each pivot row is multiplied by the
    Gaussian-rational reciprocal of its pivot, so no int / int can make a
    float.
    """
    rows = [list(r) for r in M]
    m, n = shape(rows)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(M: Matrix) -> int:
    if not M or not M[0]:
        return 0
    return len(rref(M)[1])


def nullspace(M: Matrix) -> list[list]:
    """Basis of the right kernel, exact."""
    m, n = shape(M)
    if n == 0:
        return []
    if m == 0:
        return identity(n, 1, 0)
    R, pivots = rref(M)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            val = R[r][fc]
            if val:
                vec[pc] = -val
        basis.append(vec)
    return basis


def invert(M: Matrix) -> Matrix:
    """Exact inverse of a small square matrix."""
    m, n = shape(M)
    if m != n:
        raise ValueError("inverse of a non-square matrix")
    aug = [list(M[i]) + row for i, row in enumerate(identity(n, 1, 0))]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


def columns_from_vectors(vectors: list[list]) -> Matrix:
    """Stack kernel-style vectors as the columns of a matrix."""
    if not vectors:
        return []
    n = len(vectors[0])
    return [[v[i] for v in vectors] for i in range(n)]


# ---------------------------------------------------------------------------
# the Cartan formula
# ---------------------------------------------------------------------------


def lie_vector_form(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Cartan formula L_X = iota_X d + d iota_X; preserves degree."""
    _same_space(X, a)
    first = insert_vector(X, ext_deriv(a))
    if a.degree == 0:
        return first
    return first + ext_deriv(insert_vector(X, a))


# ---------------------------------------------------------------------------
# honest torus lane: blocks from the exact maps on forms
# ---------------------------------------------------------------------------


def operators(psi_hat) -> dict:
    """Each per-mode operator once, as kind -> (degree shift, exact map on
    forms), with L the Nijenhuis-Lie derivative along psi_hat.  The
    Laplacian is quadratic in k, so it has no integer template and serves
    the exact lane only."""
    L = partial(nijenhuis_lie, psi_hat)
    return {
        "d": (1, ext_deriv),
        "dstar": (-1, codifferential),
        "L": (STEP, L),
        "Lstar": (-STEP, partial(formal_adjoint, L)),
        "lap": (0, laplacian),
    }


def mode_form(k: tuple[int, ...], idx: tuple[int, ...]) -> DifferentialForm:
    """Basis form exp(i<k,x>) e^idx."""
    return DifferentialForm(T7, len(idx), {idx: CoefficientFunction.fourier(T7, k)})


def _mode_terms(k: tuple[int, ...], form: DifferentialForm) -> dict:
    """The flat terms of a mode-k image, one per frame index; an image term
    at any other frequency raises AssertionError."""
    for _, freq in form.terms:
        if freq != k:
            raise AssertionError(f"operator moved mode {k} to {freq}; not mode-diagonal")
    return form.terms


def mode_matrix(k, deg_in: int, deg_out: int, op) -> list[list[GaussianRational]]:
    """Exact matrix of a mode-preserving operator on the mode-k basis."""
    k = tuple(k)
    image = lambda idx: _mode_terms(k, op(mode_form(k, idx)))
    return _assemble(deg_in, deg_out, image)


def _strip_i(M) -> list[list[int]]:
    """Divide a purely imaginary integer matrix by i, checking every entry."""
    if bad := next((x for row in M for x in row if x.real or x.imag.denominator != 1), None):
        raise AssertionError(f"entry {bad} is not i times an integer")
    return [[x.imag.numerator for x in row] for row in M]


ADJOINT_OF = {"Lstar": ("L", STEP), "dstar": ("d", 1)}  # adjoint kind: (operator, its shift)


def templates(calc, kind: str) -> dict:
    """The unit templates of `kind` by domain degree, from a
    `torus.ModeCalculus`; L* and d* are the `torus._adjoint` of the L or d
    template at m - shift, as the sweep forms them."""
    if kind in ADJOINT_OF:
        op, shift = ADJOINT_OF[kind]
        return {m + shift: _adjoint(T) for m, T in getattr(calc, op).items()}
    return getattr(calc, kind)


def template_block(calc, kind: str, m: int, k) -> list[list[int]]:
    """Stripped integer block of `kind` on Lambda^m at k from the templates
    of a `torus.ModeCalculus`; [] out of range."""
    table = templates(calc, kind)
    if m not in table:
        return []
    return np.tensordot(calc.frequencies([k])[0], table[m], 1).tolist()


def block(calc, kind: str, m: int, k) -> list[list[GaussianRational]]:
    """Exact block of `kind` on Lambda^m at k for the psi of a
    `torus.ModeCalculus`, assembled from the map on forms; [] out of range."""
    shift, op = operators(contract_metric(calc.psi))[kind]
    return mode_matrix(k, m, m + shift, op) if m in _domain(shift) else []


def mode_summary(calc, k, degree: int | None = None) -> dict:
    """`mode_summaries` of the single mode k."""
    return calc.mode_summaries([k], degree)[0]


def anticommutation_check(calc, k) -> bool:
    """Exact per-mode identities L d = -d L, L d* = -d* L and
    L lap = lap L on every Lambda^m, from direct matrix products of the
    honest blocks; a block out of range is the zero map."""
    zero = GaussianRational(0)
    shifts = {kind: shift for kind, (shift, _) in operators(contract_metric(calc.psi)).items()}

    @cache
    def blk(kind, m):
        return block(calc, kind, m, k)

    def prod(outer, inner, c=1):  # c * outer inner; [] when either is a zero map
        A, B = blk(*outer), blk(*inner)
        return [[c * x for x in row] for row in matmul(A, B, zero)] if A and B else []

    for kind, c in (("d", 1), ("dstar", 1), ("lap", -1)):  # L X + c X L = 0
        for m in range(N + 1):
            terms = (prod(("L", m + shifts[kind]), (kind, m)), prod((kind, m + STEP), ("L", m), c))
            terms = [M for M in terms if M]
            # the sum of the equally shaped nonzero terms must vanish
            if any(sum(xs, zero) for rows in zip(*terms) for xs in zip(*rows)):
                return False
    return True


def _mul(A, B) -> np.ndarray:
    """The exact product of two integer matrices; as lists, which perfbench's
    tracer sizes, to `int_matmul`."""
    return linalg.int_matmul([A], [B])[0]


def _rho(calc, X: np.ndarray, m: int) -> np.ndarray:
    """X in gl(N) acting on Lambda^m as a derivation: sum_ab X_ab eps_a
    eps_b^T, with eps_a the unit template of d into degree m."""
    if m == 0:
        return np.zeros((1, 1), dtype=np.int64)
    E = calc.d[m - 1]
    W = _mul(X, E.reshape(N, -1)).reshape(E.shape)  # W_a = sum_b X_ab eps_b
    return linalg.int_matmul(list(E), list(W.swapaxes(1, 2))).sum(axis=0)


def orbit_certified(calc) -> bool:
    """The verdict of `ModeCalculus.orbit_certified`, one generator at a
    time: the orbit tangent {X E1} of `g2.stabilizer(psi)` has rank N - 1,
    and each generator X intertwines every unit template of L, d and ad."""
    gens = [linalg._int_array(X) for X in stabilizer(calc.psi)]
    if linalg.int_ranks([[[X[i, 0] for X in gens] for i in range(N)]]) != [N - 1]:
        return False
    eye = np.eye(space_dim(N, STEP), dtype=np.int64)
    for X in gens:
        rho = [_rho(calc, X, m) for m in range(N + 1)]
        families = [(T, rho[m], rho[m + STEP]) for m, T in calc.L.items()]
        families += [(T, rho[m], rho[m + 1]) for m, T in calc.d.items()]
        # ad: X on the vector field; on its values, X on the component
        # index and rho_STEP on each component's form (component-major)
        out = np.kron(X, eye) + np.kron(np.eye(N, dtype=np.int64), rho[STEP])
        families.append((calc.ad, X, out))
        for T, rho_in, rho_out in families:  # sum_i X_ij T_i = rho_out T_j - T_j rho_in
            lhs = _mul(X.T, T.reshape(N, -1)).reshape(T.shape)
            rhs = linalg.int_matmul([rho_out], list(T)) - linalg.int_matmul(list(T), [rho_in])
            if (lhs != rhs).any():
                return False
    return True


def integral_psi(calc) -> DifferentialForm:
    """The calculus' psi scaled by the lcm of its coefficients' denominators,
    the form that its integer templates hold."""
    return calc.psi.scale(lcm(*(val.real.denominator for val in calc.psi.terms.values())))


def one_form_kernel_check(calc, k, star_psi: DifferentialForm | None = None) -> bool:
    """Per-mode kernel characterization on 1-forms: ker(L on Lambda^1)
    = { alpha : Lie_{alpha-sharp}(*Psi) = 0 and d* alpha = 0 }.  The check
    strips i from blocks beside the templates, so *Psi defaults to the dual
    of the calculus' lcm-scaled psi (no rank changes)."""
    k = tuple(k)
    if not any(k):
        return True  # both sides are all of Lambda^1 at the zero mode
    star_psi = hodge_star(integral_psi(calc)) if star_psi is None else star_psi
    lhs = template_block(calc, "L", 1, k)
    lie = mode_matrix(k, 1, star_psi.degree, lambda a: lie_vector_form(sharp(a), star_psi))
    rhs = _strip_i(lie + block(calc, "dstar", 1, k))
    r_lhs, r_rhs, r_both = (linalg.int_ranks([M])[0] for M in (lhs, rhs, lhs + rhs))
    return r_lhs == r_rhs == r_both


# ---------------------------------------------------------------------------
# G2 type projections by Gram inversion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gram_type_projections(degree: int):
    """Exact orthogonal projections onto the G2 type pieces of Lambda^2
    (7, 14) or Lambda^3 (1, 7, 27): Gram projections B (B^T B)^{-1} B^T
    onto the spans Lambda^2_7 = <i_{e_i} phi>, Lambda^3_1 = <phi> and
    Lambda^3_7 = <i_{e_i} *phi>, and I minus these for the last piece."""
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
        B = columns_from_vectors([col(f) for f in forms])
        Bt = transpose(B)
        Ginv = invert(matmul(Bt, B, zero))
        return matmul(matmul(B, Ginv, zero), Bt, zero)

    parts = [gram_projection(forms) for forms in spans]
    rest = [
        [(one if i == j else zero) - sum((P[i][j] for P in parts), zero) for j in range(dim)]
        for i in range(dim)
    ]
    return (*parts, rest)


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


def gram_type_project(a: DifferentialForm, component: str) -> DifferentialForm:
    """The projection of a 2- or 3-form on R^7 onto a G2 type component by
    its Gram projection matrix."""
    degree, slot = G2_COMPONENTS[component]
    return apply_constant_matrix(a, gram_type_projections(degree)[slot], degree)
