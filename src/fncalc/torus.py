"""Per-Fourier-mode calculus on the flat 7-torus.

Constant-coefficient first-order operators are block-diagonal over the
Fourier modes exp(i<k,x>), and on each mode they restrict to finite
matrices on Lambda^l C^7.  One class, `ModeCalculus`, builds from the
symbol formula, without the form engine, the integer templates of d, the
parallel-form differential L (the Nijenhuis-Lie derivative along the
metric contraction of a parallel 4-form Psi, raising degree by 3) and the
bracket differential ad on vector fields, and sweeps the modes for
harmonic, cohomology, and regularity data in fraction-free integer
elimination.  Every block is i times an integer linear form in k, so the
formal adjoints are L* = -L^T and d* = -d^T: they are never stored, and
`_adjoint` alone forms them.  The test suite holds every template against
an independent derivation, `tests/reference.py`, which assembles any
mode's blocks (the Laplacian's too) from the exact maps on forms, and `ad`
against `fn_bracket`.

The sweep works on stacks of `_CHUNK` (64) modes at once, which spreads
numpy's per-call cost over many of the small blocks (8 to 35 rows).  The
templates are integer arrays of shape (7, rows, cols); one `np.tensordot`
forms a block for every mode of the stack, and `linalg.int_ranks` runs one
Bareiss elimination over the whole stack.  It and the product
`linalg.int_matmul` run on doubles, which are exact there, only behind
explicit bounds (entries below 2**26 before each elimination step, so every
product and difference stays below 2**53, read from the entries once
Hadamard's bound on the minors no longer gives it; max|A| * max|B| * inner
below 2**53) and otherwise continue on Python ints (dtype `object`), so a failed
bound costs speed, never exactness.

A sweep forms only the ranks of the row fields it is asked for:
torus-cohomology asks for the harmonic and cohomology dimensions,
symbol-check for the symbols and the regularity products L* L.  Rank L*_l
is rank L_{l-3}.  The split of the harmonic space at degree l into its
exact and coexact parts needs no kernel basis: for the harmonic stack
S = [L_l ; L*_l] and a block D, dim(ker S cap Im D) = rank D - rank(S D),
so each part comes from the stacks and pass of the harmonic dimensions.

`ModeCalculus.sweep` computes one row per class of modes, at its
representative, and returns the classes; the split reads k only through
`any(k)`, so the row is every member's.  The zero mode is its own class.
For the other modes there are two lanes.

The orbit lane: when the calculus is `orbit_certified`, every nonzero mode
is in the class of E1 = (1, 0, ..., 0), so a sweep at |k|_inf >= 1 computes
two rows, K0 and E1, in one stack and forks no pool.  The certificate reads
psi alone; it is exact, on Python ints, and computed once per calculus at
its first sweep past the zero mode, from steps 1 and 3 (step 2 is proved):
1. A rational basis X_1, ..., X_r of h = stab(psi) cap so(N) is
   `g2.stabilizer(psi)`; on Lambda^m, X acts as the derivation rho_m(X) =
   sum_ab X_ab eps_a eps_b^T (eps_a, the unit template of d, is e^a ^ .).
2. Each X in h satisfies the intertwining identity of every template family
   T_j: Lambda^a -> Lambda^b, sum_i X_ij T_i = rho_b(X) T_j - T_j rho_a(X),
   for L (b = a + STEP), d (b = a + 1) and ad (X on the vector field; X on
   the component index plus rho_STEP(X) on the rows).  Proof: for X in
   so(N), [rho(X), eps_j] = sum_i X_ij eps_i and [rho(X), iota] is the iota
   of X.psi = rho_(STEP+1)(X) psi, so the identity's defect is the L
   template of X.psi for L, 0 for d and the ad template of X.psi for ad:
   for X in h, that of 0.  The builder is linear in the lcm-scaled psi, so
   `tests/test_torus.py::test_the_builder_intertwines_so7_on_the_unit_4forms`
   proves this for every psi and X on the 35 unit 4-forms e^I and the 21
   E_ab - E_ba.
3. The orbit tangent {X E1 : X in h} has rank N - 1, a pivot count of
   `g2._eliminate`.
Why that suffices.  h is the Lie algebra of the closed subgroup stab(psi)
cap SO(N); its identity component G is compact and connected.  The identity
is linear in X, so it holds on h, and since block(k) / i = sum_j k_j T_j it
integrates to T(g k) = rho_b(g) T(k) rho_a(g)^-1 for g in G, with rho(g) =
Lambda^m g orthogonal.  So L* = -L^T and d* = -d^T transform the same way,
and every block, stack and product S D of a row at g k is conjugate to the
one at k, by orthogonal matrices: every rank in the row is the same.  By 3,
G E1 is open in S^(N-1); being compact it is also closed, so it is the
whole sphere, and every k != 0 is |k| g E1 for some g in G.  Scaling by
|k| > 0 changes no rank, and the rank of an integer matrix over Q is its
rank over R.  So every nonzero mode has E1's row.  For the G2 form *phi,
h = g2 has dimension 14 and G2 is transitive on S^6 (Bryant, "Some remarks
on G_2-structures", arXiv:math/0305124).  Nothing above uses N = 7 or
STEP = 3.

The line lane, for a psi that fails the certificate: one row per rational
line through the origin, at its primitive representative (k / gcd(k),
first nonzero entry positive).  This is exact, not a sample: every block is
linear in k, so block(c k) = c block(k), and every product of blocks is
c^2 times its value at k, so for c != 0 no rank changes.  At |k|_inf <= 1
that is 1,094 rows for 2,187 modes, at |k|_inf <= 2 37,970 for 78,125.

`sweep_modes` over every mode stays the exhaustive lane, and the tests hold
all three equal.
"""

from __future__ import annotations

import os
from functools import cache, cached_property, partial
from itertools import product
from math import gcd

import numpy as np

from . import linalg
from .exterior import (
    DifferentialForm,
    _insert_frame_terms,
    _insert_terms,
    _wedge_terms,
    hodge_star,
    torus_space,
)
from .g2 import _eliminate, _integer_terms, stabilizer, standard_phi
from .multiindex import all_indices, index_position, space_dim

T7 = torus_space(7)
N = 7
STEP = 3  # a parallel 4-form's differential raises degree by 3


def star_phi_on_torus() -> DifferentialForm:
    """The parallel 4-form dual to the standard G2 form, on T^7."""
    return hodge_star(standard_phi(T7).phi)


def check_psi(psi: DifferentialForm) -> None:
    """Raise ValueError unless psi is a constant real 4-form on T^7, the
    forms whose per-mode blocks this module computes."""
    if psi.space != T7 or psi.degree != STEP + 1 or not psi.is_constant():
        raise ValueError("mode templates need a constant 4-form on the 7-torus")
    if any(val.imag for val in psi.terms.values()):
        raise ValueError("mode templates need a 4-form with real coefficients")


FIELDS = ("harmonic", "cohomology", "symbols", "regular", "vector_kernel")  # of a sweep row


def _domain(shift: int) -> range:
    """The degrees m with both Lambda^m and Lambda^{m+shift} in range."""
    return range(max(0, -shift), N + 1 - max(0, shift))


def _assemble(deg_in: int, deg_out: int, image) -> list[list]:
    """The matrix on the frame basis of Lambda^deg_in whose column idx holds
    image(idx), a flat {(multi-index, key): entry} map into Lambda^deg_out
    with one key per index."""
    pos = index_position(N, deg_out)
    cols = all_indices(N, deg_in)
    M = [[0] * len(cols) for _ in range(space_dim(N, deg_out))]
    for c, idx in enumerate(cols):
        for (out_idx, _), val in image(idx).items():
            M[pos[out_idx]][c] = val
    return M


# ---------------------------------------------------------------------------
# the mode calculus: integer templates (the fast lane) and per-mode dimensions
# ---------------------------------------------------------------------------


def _adjoint(T: np.ndarray) -> np.ndarray:
    """The templates or blocks of the formal adjoint: -T^T on the last two axes."""
    return -T.swapaxes(-1, -2)


def _act(M: np.ndarray, T: np.ndarray, axis: int) -> np.ndarray:
    """Each matrix of a stack M (g, p, q) applied to one axis of T, of length
    q, in one exact product: the result has g first, then T's axes with p
    at `axis`.  The operands go to `int_matmul` as lists of one matrix,
    which perfbench's tracer sizes."""
    g, p, q = M.shape
    rest = [*range(axis), *range(axis + 1, T.ndim)]
    P = linalg.int_matmul([M.reshape(-1, q)], [T.transpose(axis, *rest).reshape(q, -1)])
    P = P.reshape(g, p, *(T.shape[i] for i in rest))
    return P.transpose(0, *range(2, axis + 2), 1, *range(axis + 2, T.ndim + 1))


def _cancels(outer, inner) -> bool:
    """Whether P[a, b] + P[b, a] = 0 for every pair (a, b), where P[a, b] is
    the sum of outer_a inner_b over the factor pairs (outer, inner) of
    shapes (N, r, n) and (N, n, c), n per pair: one product, of the outer
    factors side by side on the inner ones stacked, forms P at once.  P
    dies on return, before the next identity's product, which keeps the
    check's peak memory to one P."""
    P = _act(np.concatenate(outer, axis=2), np.concatenate(inner, axis=1), 1)
    return not (P + P.swapaxes(0, 1)).any()


class ModeCalculus:
    """All per-mode computations for one parallel 4-form psi on T^7, from
    unit-frequency integer templates of the sweep operators built by the
    symbol formula: on the mode k, d = i eps_k with eps_k = k ^ ., and L =
    i (iota eps_k - eps_k iota) with iota: alpha -> sum_b psi_hat_b ^
    iota_{e_b} alpha.  So block(k)/i = sum_j k_j T_j with T^d_j = eps_j and
    T^L_j = iota eps_j - eps_j iota, for psi scaled by the lcm of its
    coefficient denominators (`g2._integer_terms`; `psi` is kept as given),
    which changes no rank.  The bracket differential v e^{i<k,x>} ->
    [psi_hat, v e^{i<k,x>}] on vector fields has T^ad_j v with component s = v_s
    psi_hat_j - eps_j iota_v psi_hat_s, a tangent-valued 3-form.  `L` and
    `d` map a domain degree m to one (7, rows, cols) array, and `ad` is one
    (7, 7 * 35, 7) array whose rows are component-major; each is int64 when
    its entries fit and Python ints (`object`) otherwise, so the blocks of
    a stack of modes K (s x 7) are `np.tensordot(K, T, 1)`."""

    def __init__(self, psi: DifferentialForm | None = None):
        psi = self.psi = star_phi_on_torus() if psi is None else psi
        check_psi(psi)
        basis = lambda idx: {(idx, ()): 1}  # e^idx; integer constant maps carry the empty key
        terms = _integer_terms(psi)
        hat = [_insert_frame_terms(b, terms) for b in range(1, N + 1)]
        iota = lambda idx: _insert_terms(hat, basis(idx))  # sum_b psi_hat_b ^ iota_{e_b} e^idx
        wedge_j = [partial(_wedge_terms, basis((j,))) for j in range(1, N + 1)]
        eps = {m: [_assemble(m, m + 1, lambda i: e(basis(i))) for e in wedge_j] for m in range(N)}
        ins = {m: _assemble(m, m + STEP - 1, iota) for m in range(N + 2 - STEP)}
        # lists of matrices, which perfbench's tracer sizes, go to `int_matmul`
        self.L = {
            m: linalg.int_matmul([ins[m + 1]], eps[m])
            - linalg.int_matmul(eps[m + STEP - 1], [ins[m]])
            for m in _domain(STEP)
        }
        self.d = {m: linalg._int_array(E) for m, E in eps.items()}
        # ad: component s of T_j v is v_s psi_hat_j - eps_j iota_v psi_hat_s,
        # with psi_hat_j = iota e^j, column j of iota on Lambda^1
        iota_hat = [_assemble(1, STEP - 1, lambda i: _insert_frame_terms(*i, h)) for h in hat]
        ad = -linalg.int_matmul([[E] for E in eps[STEP - 1]], iota_hat)  # (j, s, row, v)
        hats = linalg._int_array(ins[1]).T
        for s in range(N):
            ad[:, s, :, s] += hats
        self.ad = ad.reshape(N, -1, N)  # rows s * dim Lambda^3 + row
        # every block entry at k is at most N * max|k_j| * entry_bound
        self._entry_bound = max(map(linalg._max_abs, (*self.L.values(), *self.d.values(), self.ad)))

    def frequencies(self, modes) -> np.ndarray:
        """The modes as the rows of an (s, 7) integer array: int64 when
        every block entry at every mode fits in it, Python ints (dtype
        `object`) otherwise."""
        K = np.array([tuple(k) for k in modes], dtype=object).reshape(len(modes), N)
        if max(map(abs, K.flat), default=0) * N * self._entry_bound < 2**62:
            K = K.astype(np.int64)
        return K

    def anticommutation_linear_check(self) -> bool:
        """The coefficient identities implying L d = -d L and L d* = -d* L
        at every frequency: all blocks are linear in k, so it suffices that
        P[a, b] + P[b, a] = 0 for every pair (a, b), on every Lambda^m, where
        P[a, b] is the sum of the unit-mode products outer_a inner_b over the
        factor pairs (L X and X L) in range; a template out of range is the
        zero map."""
        d_adjoint = {m + 1: _adjoint(T) for m, T in self.d.items()}
        for X, shift in ((self.d, 1), (d_adjoint, -1)):  # L X + X L = 0
            for m in range(N + 1):
                factors = [
                    (outer[i], inner[m])
                    for outer, inner, i in ((self.L, X, m + shift), (X, self.L, m + STEP))
                    if i in outer and m in inner
                ]
                if factors and not _cancels(*zip(*factors)):
                    return False
        return True

    def mode_summaries(self, modes, degree: int | None = None, fields=FIELDS) -> list[dict]:
        """The requested `FIELDS` of each mode's row, for a stack of modes:
        per degree l, the "harmonic" and "cohomology" dimensions and the
        "regular"ity split; the "vector_kernel" of the bracket on vector
        fields, 7 - rank ad(k); at k != 0, the "symbols" of L into degrees
        3, 4 and 7; and, given a degree, its dims with the split of its
        harmonic space under "split".
        torus-cohomology asks for harmonic and cohomology, symbol-check for
        symbols and regular.  Only the blocks and ranks those fields need
        are formed, each once, and each kind of rank in one elimination.
        Rank L*_l is rank L_{l-3}, and L*_l, the `_adjoint` of L_{l-3}, is
        formed only for a harmonic stack [L_l ; L*_l] (l = 3, 4), a split or
        a regularity product."""
        modes = [tuple(k) for k in modes]
        if not modes:
            return []
        K = self.frequencies(modes)
        dims = [space_dim(N, l) for l in range(N + 1)]
        L = {m: np.tensordot(K, T, 1) for m, T in self.L.items()}  # domain degree
        rank_L = {m: linalg.int_ranks(S) for m, S in L.items()}
        adjoint_degrees = {m + STEP for m in L}  # the l with an L*_l
        Ls = cache(lambda l: _adjoint(L[l - STEP]))

        @cache
        def S(l):  # the harmonic stack out of degree l, or its lone operator
            if l in L and l in adjoint_degrees:
                return np.concatenate((L[l], Ls(l)), axis=1)
            return L[l] if l in L else Ls(l)

        want_h = "harmonic" in fields or degree is not None
        if want_h:  # dim Lambda^l minus rank S_l; a lone L_l or L*_l has rank L_l or L_{l-3}
            stacked = {l: linalg.int_ranks(S(l)) for l in L if l in adjoint_degrees}
            rank_S = [stacked.get(l, rank_L.get(l, rank_L.get(l - STEP))) for l in range(N + 1)]
        if "regular" in fields:
            # Lambda^l = ker(L*_l) (+) Im(L_{l-3}) iff rank(L* L) = rank L, as the
            # dimensions add up; an empty domain (l < 3) gives Lambda^l (+) 0.  The
            # factors go to `int_matmul` as lists, which perfbench's tracer sizes.
            rank_LsL = {
                l: linalg.int_ranks(linalg.int_matmul(list(Ls(l)), list(L[l - STEP])))
                for l in adjoint_degrees
            }
        if "vector_kernel" in fields:
            rank_ad = linalg.int_ranks(np.tensordot(K, self.ad, 1))
        if degree is not None:
            # dim(ker S_j cap Im D) = rank D - rank(S_j D): the exact part
            # (D = d_{l-1}) and the coexact part (D = d*_{l+1}, the adjoint
            # of d_l, of equal rank) at j = l, and the image of the coexact
            # part under d (D = d_l) at j = l + 1.
            l = degree
            d = {m: np.tensordot(K, self.d[m], 1) for m in (l - 1, l) if m in self.d}
            rank_d = {m: linalg.int_ranks(D) for m, D in d.items()}
            parts = []
            for j, m, adjoint in ((l, l - 1, False), (l, l, True), (l + 1, l, False)):
                if m not in d:
                    parts.append([0] * len(modes))
                    continue
                D = _adjoint(d[m]) if adjoint else d[m]
                SD = linalg.int_matmul(list(S(j)), list(D))
                parts.append([a - b for a, b in zip(rank_d[m], linalg.int_ranks(SD))])

        summaries = []
        for i, k in enumerate(modes):
            ranks = {m: r[i] for m, r in rank_L.items()}
            summary = {"k": list(k)}
            if want_h:
                harmonic = [dims[l] - rank_S[l][i] for l in range(N + 1)]
            if "harmonic" in fields:
                summary["harmonic"] = harmonic
            if "cohomology" in fields:
                summary["cohomology"] = [
                    dims[l] - ranks.get(l, 0) - ranks.get(l - STEP, 0) for l in range(N + 1)
                ]
            if "regular" in fields:
                summary["regular"] = [
                    l not in rank_LsL or rank_LsL[l][i] == ranks[l - STEP] for l in range(N + 1)
                ]
            if "vector_kernel" in fields:
                summary["vector_kernel"] = N - rank_ad[i]
            if "symbols" in fields and any(k):
                # injective/surjective type of L into degree l, the principal
                # symbol of the first-order operator in the direction k
                for l in (3, 4, 7):
                    summary[f"symbol_{l}"] = _classify(ranks[l - STEP], dims[l], dims[l - STEP])
            if degree is not None:
                parts_i = (p[i] for p in parts)
                summary["split"] = _split_report(k, degree, harmonic[degree], ranks, *parts_i)
            summaries.append(summary)
        return summaries

    @cached_property
    def orbit_certified(self) -> bool:
        """Whether every nonzero mode has the row of E1 (module docstring):
        the orbit tangent {X E1 : X in `g2.stabilizer(psi)`} has rank N - 1,
        a pivot count of `g2._eliminate`.  Exact, on Python ints; computed
        at the first sweep that needs it."""
        gens = stabilizer(self.psi)
        return len(_eliminate([[X[i][0] for X in gens] for i in range(N)])[1]) == N - 1

    def sweep(
        self, max_freq: int = 1, jobs: int | None = None, degree: int | None = None, fields=FIELDS
    ) -> tuple[dict, dict]:
        """The classes of the modes with |k|_inf <= max_freq: `rep_of` maps
        each mode, in lexicographic order, to its class representative, and
        `rows` each representative to its `mode_summaries` row.  The zero
        mode is its own class; when the calculus is `orbit_certified`, E1
        represents every other mode, and otherwise each rational line is a
        class, at its `_primitive` representative."""
        modes = product(range(-max_freq, max_freq + 1), repeat=N)
        rep = _orbit if max_freq >= 1 and self.orbit_certified else _primitive
        rep_of = {k: rep(k) for k in modes}
        reps = sorted(set(rep_of.values()))
        summarize = partial(self.mode_summaries, degree=degree, fields=fields)
        return rep_of, dict(zip(reps, sweep_modes(summarize, reps, jobs)))


E1 = (1,) + (0,) * (N - 1)


def _orbit(k: tuple[int, ...]) -> tuple[int, ...]:
    """The representative of k's orbit class: E1 for a nonzero mode."""
    return E1 if any(k) else k


def _primitive(k: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive representative of the rational line through k: k /
    gcd(k) with its first nonzero entry positive; the zero mode is its own."""
    g = gcd(*k)
    if g and next(x for x in k if x) < 0:
        g = -g
    return tuple(x // g for x in k) if g else k


def _split_report(k, l, h, rank_L, d_part, dstar_part, up_d_part) -> dict:
    """The printed dims of degree l at mode k from the harmonic dimension h,
    the L ranks by domain degree and the split's parts (d is 1-1 on the
    coexact one)."""
    ker = space_dim(N, l) - rank_L.get(l, 0)
    image = rank_L.get(l - STEP, 0)
    if any(k):
        if up_d_part != dstar_part:
            raise ValueError("d must map the coexact part isomorphically")
        harmonic_forms = 0  # the Laplacian block is |k|^2 id, injective
    else:
        harmonic_forms, d_part, dstar_part = h, 0, 0
    if ker < image:
        raise ValueError("negative cohomology dimension")
    if harmonic_forms + d_part + dstar_part != h:
        raise ValueError("the split's parts must add up to the harmonic dimension")
    split = {"harmonic_forms": harmonic_forms, "d_part": d_part, "dstar_part": dstar_part}
    return {"kernel": ker, "image": image, "harmonic": h, "cohomology": ker - image, "split": split}


def _classify(r: int, rows: int, cols: int) -> str:
    injective, surjective = r == cols, r == rows
    return ("neither", "surjective", "injective", "bijective")[2 * injective + surjective]


# -- parallel sweep machinery (fork-shared templates) -----------------------

_WORKER_SUMMARIES = None
_CHUNK = 64  # modes per stack, and per task sent to a worker


def _worker_summaries(chunk):
    return _WORKER_SUMMARIES(chunk)


def _cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_modes(summarize, modes, jobs: int | None = None) -> list[dict]:
    """The rows of every mode, in order, from `summarize` (a
    `ModeCalculus.mode_summaries`, perhaps with its degree bound) on stacks
    of `_CHUNK` modes.  Workers are never more than `jobs` (default: all
    the CPUs this process may run on, `_cpus`), those CPUs, or the stacks
    to share."""
    global _WORKER_SUMMARIES
    modes = list(modes)
    chunks = [modes[i : i + _CHUNK] for i in range(0, len(modes), _CHUNK)]
    cpus = _cpus()
    jobs = min(cpus if jobs is None else jobs, cpus, len(chunks))
    if jobs <= 1:
        return [s for chunk in chunks for s in summarize(chunk)]
    import multiprocessing  # only a sweep that forks pays for the import

    _WORKER_SUMMARIES = summarize
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(jobs) as pool:
            results = pool.map(_worker_summaries, chunks, chunksize=1)
    finally:
        _WORKER_SUMMARIES = None
    return [s for part in results for s in part]


@cache
def default_calculus() -> ModeCalculus:
    return ModeCalculus()
