"""The canonical (hash, entity, count) multiset operations.

This module is an import leaf (NumPy only): the engine, the join
cutover, the warm-restart delta and the recon protocol all reconcile
through these two functions, so there is exactly one definition of
"what it means for two content views to differ".
"""

from __future__ import annotations

import numpy as np

__all__ = ["canonical_pairs", "pair_multiset_diff"]

_U64 = np.uint64


def _empty_triplet() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (np.empty(0, dtype=_U64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64))


def _pair_sums(h: np.ndarray, e: np.ndarray, c: np.ndarray) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per distinct ``(hash, entity)`` pair of a non-empty bag,
    sorted by (hash, entity), with its counts summed (zero sums kept)."""
    order = np.lexsort((e, h))
    h, e, c = h[order], e[order], c[order]
    newpair = np.empty(len(h), dtype=bool)
    newpair[0] = True
    newpair[1:] = (h[1:] != h[:-1]) | (e[1:] != e[:-1])
    starts = np.flatnonzero(newpair)
    return h[starts], e[starts], np.add.reduceat(c, starts)


def canonical_pairs(h: np.ndarray, e: np.ndarray,
                    c: np.ndarray | None = None) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse a (hash, entity[, count]) bag into canonical rows.

    Returns unique ``(hash, entity)`` pairs sorted by (hash, entity)
    with summed counts — the normal form both sides of a reconciliation
    are put into before digesting or diffing.  ``c=None`` means every
    input row counts 1 (a replay stream).
    """
    h = np.asarray(h, dtype=_U64)
    e = np.asarray(e, dtype=np.int64)
    if c is None:
        c = np.ones(len(h), dtype=np.int64)
    else:
        c = np.asarray(c, dtype=np.int64)
    if not len(h):
        return _empty_triplet()
    h, e, sums = _pair_sums(h, e, c)
    keep = sums != 0
    return h[keep], e[keep], sums[keep]


def pair_multiset_diff(have_h: np.ndarray, have_e: np.ndarray,
                       have_c: np.ndarray, want_h: np.ndarray,
                       want_e: np.ndarray,
                       want_c: np.ndarray | None = None):
    """Diff two (hash, entity) multisets; ``want`` pairs each count 1
    unless ``want_c`` gives explicit multiplicities (repetition =
    multiplicity, exactly as a replay would insert them).

    Returns ``((ins_h, ins_e, ins_c), (rem_h, rem_e, rem_c))`` sorted by
    (hash, entity) — a deterministic apply order.
    """
    if want_c is None:
        want_c = np.ones(len(want_h), dtype=np.int64)
    h = np.concatenate([np.asarray(have_h, dtype=_U64),
                        np.asarray(want_h, dtype=_U64)])
    e = np.concatenate([np.asarray(have_e, dtype=np.int64),
                        np.asarray(want_e, dtype=np.int64)])
    c = np.concatenate([-np.asarray(have_c, dtype=np.int64),
                        np.asarray(want_c, dtype=np.int64)])
    if not len(h):
        z = _empty_triplet()
        return z, z
    uh, ue, sums = _pair_sums(h, e, c)
    ins = sums > 0
    rem = sums < 0
    return ((uh[ins], ue[ins], sums[ins]),
            (uh[rem], ue[rem], -sums[rem]))
