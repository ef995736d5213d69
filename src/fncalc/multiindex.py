"""Combinatorics of strictly increasing multi-indices.

Multi-indices are tuples of 1-based coframe indices, strictly increasing.
These helpers carry all wedge/star/insertion sign bookkeeping.  The flat
kernels exterior._wedge_terms, _insert_frame_terms and _star_terms apply
them to {(multi-index, key): scalar} maps of any scalar type, so the exact
forms, the G2 Gram matrix and the pointwise-numeric lane share them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb


def check_multi_index(idx: tuple[int, ...], dim: int) -> None:
    if any(not 1 <= i <= dim for i in idx):
        raise ValueError(f"index out of range 1..{dim}: {idx}")
    if any(idx[r] >= idx[r + 1] for r in range(len(idx) - 1)):
        raise ValueError(f"multi-index must be strictly increasing: {idx}")


@lru_cache(maxsize=None)
def merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Sign and sorted union of two disjoint multi-indices.

    Returns (sign, merged) with e^left ^ e^right = sign * e^merged, or None
    when the indices overlap.
    """
    if set(left) & set(right):
        return None
    merged = tuple(sorted(left + right))
    # count inversions of the concatenation relative to sorted order
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    sign = -1 if inversions % 2 else 1
    return sign, merged


@lru_cache(maxsize=None)
def insertion_terms(idx: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Expansion of interior product on a basis form.

    For e^idx, yields (index_removed, sign, remaining_index) triples with
    iota_{e_j} e^idx = sign * e^remaining when j == index_removed.
    """
    out = []
    for pos, j in enumerate(idx):
        sign = -1 if pos % 2 else 1
        out.append((j, sign, idx[:pos] + idx[pos + 1:]))
    return tuple(out)


@lru_cache(maxsize=None)
def complement_sign(idx: tuple[int, ...], dim: int):
    """Hodge data in the orthonormal coframe with standard orientation.

    Returns (sign, complement) with *(e^idx) = sign * e^complement, i.e. the
    sign of the permutation (idx, complement) of (1..dim).
    """
    comp = tuple(i for i in range(1, dim + 1) if i not in idx)
    return merge_sign(idx, comp)[0], comp


@lru_cache(maxsize=None)
def all_indices(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing degree-tuples from 1..dim, lexicographic."""
    if degree < 0 or degree > dim:
        return ()
    return tuple(combinations(range(1, dim + 1), degree))


@lru_cache(maxsize=None)
def index_position(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    """Lexicographic rank of each degree-index, for matrix assembly."""
    return {idx: p for p, idx in enumerate(all_indices(dim, degree))}


def space_dim(dim: int, degree: int) -> int:
    if degree < 0 or degree > dim:
        return 0
    return comb(dim, degree)
