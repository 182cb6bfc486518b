"""One frozen generation of a shard, its one on-disk form, and the fold
that builds the next one from a write log.

A shard's packed state is a :class:`Generation`: the sorted ``uint64``
hash column (``ph``), each hash's holder bits for entities 0..63
(``pm``), each row's extra copies (``px``: the overflow summed by row,
the O(1) probe of a scalar ``num_copies``), the wide spill (hash ->
``mask >> 64``), the multi-copy overflow as three columns (hash,
entity, copies beyond the first; sorted) and the counters.  It owns
every read kernel over that state; :meth:`Generation.union` joins the
live shards' generations into the view a collective query scans once.
A generation is never written in place, so a reader holding one never
sees a later write (BlobSeer's versioning, PAPERS.md "Distributed
Management of Massive Data": writers append, versions merge in bulk).

:func:`fold` is that bulk merge: it applies a log of (hash, entity,
±1) rows to a generation.  Sorted by (hash, entity), each pair's steps
fold from its current copies ``c0`` by the skip-absent rule
x <- max(x + s, 0), in closed form ``max(c0 + S_n, S_n - min_k S_k)``
over the pair's prefix sums; masks, spill, overflow, ``px`` and the
counters follow from the final counts.

The on-disk codec (docs/STORAGE.md) is one checksummed file: a header of
little-endian u64 words, the five columns, then the wide spill.
:meth:`Generation.save` writes it in one :func:`atomic_write`;
:meth:`Generation.load` maps it back read-only and refuses a file whose
format word, size, CRC-32 or counters disagree with its bytes.
"""

from __future__ import annotations

import json
import mmap
import os
import zlib
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Generation", "atomic_write", "fold", "mask_bits"]

_U64 = np.uint64
_M64 = (1 << 64) - 1
_ONE = _U64(1)

Columns = tuple[np.ndarray, np.ndarray, np.ndarray]

# The header of a generation file, in u64 words: the format word, the
# commit number, n_rows, n_extra, n_hashes, n_copies, epoch, the wide
# spill's byte length, and the CRC-32 of every other byte of the file.
_MAGIC = int.from_bytes(b"CCGEN\x00\x00\x01", "little")
_HEAD = 9


def atomic_write(path: str | Path, data: bytes) -> mmap.mmap:
    """Write bytes to a temp sibling (one write, one fsync), map it back
    read-only, and atomically replace ``path`` with it (one rename).
    Raises OSError, renaming nothing, when the file is not ``len(data)``
    bytes long.  A short write (one ``write`` moves at most ~2 GiB on
    Linux) is continued from where it stopped."""
    tmp = f"{path}.tmp"
    fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        os.fsync(fd)
        mapped = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    if len(mapped) != len(data):
        raise OSError(f"{tmp} holds {len(mapped)} of {len(data)} bytes")
    os.replace(tmp, path)
    return mapped


def mask_bits(mask: int) -> list[int]:
    """Positions of the set bits of an entity (or node) mask, ascending —
    the one decode of the mask format, whatever its width."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _crc(raw) -> int:
    """CRC-32 of a generation file's bytes, its own header word left out."""
    return zlib.crc32(raw[8 * _HEAD:], zlib.crc32(raw[:8 * _HEAD - 8]))


@dataclass(frozen=True, eq=False, slots=True)
class Generation:
    """An immutable shard snapshot: packed columns, wide spill, overflow
    columns and counters, optionally backed by one generation file."""

    ph: np.ndarray               # sorted hashes
    pm: np.ndarray               # low-64 holder masks, aligned with ph
    wide: dict[int, int]         # hash -> mask >> 64; never mutated
    extra: Columns               # overflow (hashes, entities, counts)
    n_hashes: int
    n_copies: int
    epoch: int = 0               # the shard's update epoch when built
    path: str | None = None      # generation file holding every column
    px: np.ndarray | None = None  # extra copies per row (RAM; derived)
    # ph, pm and px as buffers whose items are Python ints: scalar probes.
    phv: memoryview = field(init=False, repr=False)
    pmv: memoryview = field(init=False, repr=False)
    pxv: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.px is None:
            xh, _xe, xc = self.extra
            px = np.bincount(self.ph.searchsorted(xh), weights=xc,
                             minlength=len(self.ph) + 1)[:-1]
            object.__setattr__(self, "px", px.astype(np.int64))
        for col in (self.ph, self.pm, self.px, *self.extra):
            col.setflags(write=False)
        object.__setattr__(self, "phv", memoryview(self.ph))
        object.__setattr__(self, "pmv", memoryview(self.pm))
        object.__setattr__(self, "pxv", memoryview(self.px))

    # -- the file codec ----------------------------------------------------------------

    def save(self, path: str | Path, gen: int) -> Generation:
        """Write this generation as commit ``gen``: one buffer — header,
        columns, wide spill as JSON — in one :func:`atomic_write` (one
        write, one fsync, one rename).  Returns it mapped back from the
        file, checked by size only (:meth:`load` checks the CRC)."""
        n, x = len(self.ph), len(self.extra[0])
        spill = json.dumps([[h, m] for h, m in self.wide.items()],
                           separators=(",", ":")).encode()
        body = 8 * (_HEAD + 2 * n + 3 * x)
        buf = bytearray(body + len(spill))
        words = np.frombuffer(buf, dtype=_U64, count=body // 8)
        words[:_HEAD - 1] = (_MAGIC, gen, n, x, self.n_hashes, self.n_copies,
                             self.epoch, len(spill))
        xh, xe, xc = self.extra
        np.concatenate((self.ph, self.pm, xh, xe.view(_U64), xc.view(_U64)),
                       out=words[_HEAD:])
        buf[body:] = spill
        words[_HEAD - 1] = _crc(memoryview(buf))
        raw = np.frombuffer(atomic_write(path, buf), dtype=np.uint8)
        return Generation._over(raw, n, x, self.wide, self.n_hashes,
                                self.n_copies, self.epoch, path, self.px)

    @staticmethod
    def load(path: str | Path) -> tuple[int, Generation] | None:
        """The commit number and generation of a file :meth:`save` wrote,
        mapped read-only — None when it is missing, or is not exactly
        such a file: another format word, another size, a CRC that
        disagrees (a flipped or torn byte anywhere), or counters that
        disagree with the columns (``n_hashes`` is not the row count, or
        ``n_copies`` not the holder bits of ``pm`` and the spill plus
        the overflow counts)."""
        try:
            with open(path, "rb") as fh:
                raw = np.frombuffer(mmap.mmap(fh.fileno(), 0,
                                              access=mmap.ACCESS_READ),
                                    dtype=np.uint8)
            magic, gen, n, x, n_hashes, n_copies, epoch, spill, crc = \
                raw[:8 * _HEAD].view(_U64).tolist()
            body = 8 * (_HEAD + 2 * n + 3 * x)
            if (magic, len(raw), crc) != (_MAGIC, body + spill, _crc(raw)):
                return None
            wide = dict(json.loads(bytes(raw[body:])))
        except (OSError, ValueError, TypeError):
            return None
        g = Generation._over(raw, n, x, wide, n_hashes, n_copies, epoch,
                             path)
        bits = int(np.bitwise_count(g.pm).sum()) + sum(
            hi.bit_count() for hi in wide.values())
        if n_hashes != n or n_copies != bits + int(g.extra[2].sum()):
            return None
        return gen, g

    @staticmethod
    def _over(raw: np.ndarray, n: int, x: int, wide: dict[int, int],
              n_hashes: int, n_copies: int, epoch: int, path: str | Path,
              px: np.ndarray | None = None) -> Generation:
        """The generation whose columns are views of a mapped file."""
        cols = raw[8 * _HEAD:8 * (_HEAD + 2 * n + 3 * x)].view(_U64)
        xh, xe, xc = cols[2 * n:].reshape(3, x)
        return Generation(cols[:n], cols[n:2 * n], wide,
                          (xh, xe.view(np.int64), xc.view(np.int64)),
                          n_hashes, n_copies, epoch, str(path), px)

    @staticmethod
    def union(gens: Sequence[Generation]) -> Generation:
        """One generation over several shards' generations: the hash
        columns concatenated and sorted, the spills merged, the overflow
        re-sorted by (hash, entity), the counters summed.  A hash lives
        at one home only, so the union answers every kernel as the shards
        do together; a hash held twice raises ValueError naming it."""
        if len(gens) <= 1:
            return gens[0] if gens else EMPTY
        ph = np.concatenate([g.ph for g in gens])
        order = np.argsort(ph, kind="stable")
        ph = ph[order]
        dup = np.flatnonzero(ph[1:] == ph[:-1])
        if len(dup):
            raise ValueError(f"hash {ph.item(dup[0]):#x} is held by more "
                             "than one shard")
        wide: dict[int, int] = {}
        for g in gens:
            wide.update(g.wide)
        xh, xe, xc = (np.concatenate(col) for col in zip(*(g.extra
                                                          for g in gens)))
        xo = np.lexsort((xe, xh))
        return Generation(ph, np.concatenate([g.pm for g in gens])[order],
                          wide, (xh[xo], xe[xo], xc[xo]),
                          sum(g.n_hashes for g in gens),
                          sum(g.n_copies for g in gens),
                          px=np.concatenate([g.px for g in gens])[order])

    # -- scalar and vector probes ----------------------------------------------------

    def mask(self, h: int) -> int:
        """Full holder mask of one hash (0: absent).  Raises OverflowError
        for a hash outside ``[0, 2**64)``, as the vector probe does."""
        if h >> 64:
            raise OverflowError(f"{h} does not fit an unsigned 64-bit word")
        # A binary search over Python ints: no NumPy scalar in or out (a
        # searchsorted on a Python int costs ~10x one on np.uint64).
        phv = self.phv
        i = bisect_left(phv, h)
        if i < len(phv) and phv[i] == h:
            lo = self.pmv[i]
            hi = self.wide.get(h)
            return lo if hi is None else lo | (hi << 64)
        return 0

    def num_copies(self, h: int) -> int:
        """Total copies of one hash (0: absent): its holders plus its
        row's ``px``, one binary search."""
        if h >> 64:
            raise OverflowError(f"{h} does not fit an unsigned 64-bit word")
        phv = self.phv
        i = bisect_left(phv, h)
        if i < len(phv) and phv[i] == h:
            hi = self.wide.get(h)
            n = self.pmv[i].bit_count() + self.pxv[i]
            return n if hi is None else n + hi.bit_count()
        return 0

    def held_copies(self, entity_id: int) -> tuple[np.ndarray, np.ndarray]:
        """The hashes an entity holds, ascending, and its copies of each."""
        if entity_id < 64:
            hs = self.ph[((self.pm >> _U64(entity_id)) & _ONE) != 0]
        else:
            bit = 1 << (entity_id - 64)
            hs = np.array(sorted(h for h, hi in self.wide.items() if hi & bit),
                          dtype=_U64)
        copies = np.ones(len(hs), dtype=np.int64)
        xh, xe, xc = self.extra
        mine = xe == entity_id
        copies[hs.searchsorted(xh[mine])] += xc[mine]
        return hs, copies

    def lo_of(self, q: np.ndarray) -> np.ndarray:
        """Low-64 masks of the hashes ``q`` (0 where absent): one vector
        probe."""
        ph = self.ph
        if not len(ph):
            return np.zeros(len(q), dtype=_U64)
        pos = ph.searchsorted(q)     # past the end clips to the last row
        return self.pm.take(pos, mode="clip") * (ph.take(pos, mode="clip")
                                                 == q)

    def scalar_masks(self, hashes) -> tuple[np.ndarray, dict[int, int]]:
        """:meth:`bulk_masks` by one scalar probe per hash — cheaper for
        a handful of hashes, the same answer."""
        wide_out: dict[int, int] = {}
        lo = []
        for hh in hashes:
            hh = int(hh)
            m = self.mask(hh)
            if m > _M64:
                wide_out[hh] = m
                m &= _M64
            lo.append(m)
        return np.array(lo, dtype=_U64), wide_out

    def scalar_copies(self, hashes) -> np.ndarray:
        """:meth:`bulk_num_copies` by one scalar probe per hash — cheaper
        for a handful of hashes, the same answer."""
        return np.array([self.num_copies(int(hh)) for hh in hashes],
                        dtype=np.int64)

    def bulk_masks(self, hashes) -> tuple[np.ndarray, dict[int, int]]:
        """Low-64 masks for an array (or list) of hashes (0 for unknown
        ones) plus the full-mask dict for wide rows: one vector probe."""
        q = np.ascontiguousarray(hashes, dtype=_U64)
        out = self.lo_of(q)
        wide_out: dict[int, int] = {}
        if self.wide:
            for i, hh in enumerate(q.tolist()):
                hi = self.wide.get(hh)
                if hi is not None:
                    wide_out[hh] = int(out[i]) | (hi << 64)
        return out, wide_out

    def bulk_num_copies(self, hashes) -> np.ndarray:
        """Total copies per hash of an array (or list) of hashes."""
        q = np.ascontiguousarray(hashes, dtype=_U64)
        return self.copies(q, *self.bulk_masks(q))

    def copies(self, q: np.ndarray, masks: np.ndarray,
               wide: dict[int, int]) -> np.ndarray:
        """Total copies of the hashes ``q`` from their :meth:`bulk_masks`:
        holders, then each held hash's ``px``."""
        counts = np.bitwise_count(masks).astype(np.int64)
        if wide:
            for i, hh in enumerate(q.tolist()):
                if hh in wide:
                    counts[i] = wide[hh].bit_count()
        if len(self.ph):
            # An absent hash's position is another row's: counts masks it.
            counts += self.px.take(self.ph.searchsorted(q),
                                   mode="clip") * (counts > 0)
        return counts

    def se_scan(self, se_mask: int) \
            -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
        """Rows whose holder set intersects an entity-set mask: their
        sorted hashes, low-64 masks, and hash -> *full* mask for the
        returned rows with holders >= entity 64."""
        ph, pm = self.ph, self.pm
        sel = (pm & _U64(se_mask & _M64)) != _U64(0)
        wide_out: dict[int, int] = {}
        if self.wide:
            hi_mask = se_mask >> 64
            for h, hi in self.wide.items():
                i = int(np.searchsorted(ph, _U64(h)))
                if hi_mask and (hi & hi_mask):
                    sel[i] = True
                if sel[i]:
                    wide_out[h] = int(pm[i]) | (hi << 64)
        # flatnonzero + take is several times faster than boolean fancy
        # indexing here, and this is the hottest line in the scan paths.
        idx = np.flatnonzero(sel)
        return ph.take(idx), pm.take(idx), wide_out

    # -- columnar views ----------------------------------------------------------------

    def items_arrays(self) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
        """(sorted hashes, low-64 masks, wide spill); a row's full mask is
        ``int(masks[i]) | (wide.get(int(hashes[i]), 0) << 64)``."""
        return self.ph, self.pm, self.wide

    def extra_arrays(self) -> Columns:
        """The overflow columns ``(hashes, entities, counts)``."""
        return self.extra

    def extra_of(self, h: int) -> dict[int, int]:
        """One hash's overflow as {entity: extra copies}."""
        xh, xe, xc = self.extra
        lo, hi = xh.searchsorted(_U64(h)), xh.searchsorted(_U64(h), "right")
        return dict(zip(xe[lo:hi].tolist(), xc[lo:hi].tolist()))

    def overflow(self) -> dict[int, dict[int, int]]:
        """The overflow as a fresh dict hash -> {entity: extra copies}."""
        out: dict[int, dict[int, int]] = {}
        for h, e, c in zip(*(col.tolist() for col in self.extra)):
            out.setdefault(h, {})[e] = c
        return out

    def items(self) -> Iterator[tuple[int, int]]:
        """(hash, full mask) pairs in sorted hash order."""
        wide = self.wide
        if not wide:
            return zip(self.ph.tolist(), self.pm.tolist())
        return ((h, lo if (hi := wide.get(h)) is None else lo | (hi << 64))
                for h, lo in zip(self.ph.tolist(), self.pm.tolist()))

    # -- the next generation ---------------------------------------------------------

    def without(self, drop: np.ndarray) -> Generation:
        """This generation with the rows at the sorted indices ``drop``
        removed, their spill and overflow with them."""
        keep = np.ones(len(self.ph), dtype=bool)
        keep[drop] = False
        gone = self.ph[drop]
        copies = int(np.bitwise_count(self.pm[drop]).sum()
                     + self.px[drop].sum())
        wide = self.wide
        if wide:
            hit = _in_sorted(gone, np.fromiter(wide, dtype=_U64,
                                               count=len(wide)))
            copies += sum(hi.bit_count() for hi, out in
                          zip(wide.values(), hit.tolist()) if out)
            wide = {h: hi for (h, hi), out in zip(wide.items(), hit.tolist())
                    if not out}
        xh, xe, xc = self.extra
        xk = ~_in_sorted(gone[self.px[drop] > 0], xh)
        return Generation(self.ph[keep], self.pm[keep], wide,
                          (xh[xk], xe[xk], xc[xk]), self.n_hashes - len(drop),
                          self.n_copies - copies, self.epoch,
                          px=self.px[keep])

    def merge_sorted(self, keys: np.ndarray, pos: np.ndarray,
                     exists: np.ndarray, lo: np.ndarray, px: np.ndarray,
                     dead: np.ndarray) -> list[np.ndarray]:
        """New ``(ph, pm, px)``: the rows of the sorted ``keys`` (each
        one's ``searchsorted`` position here, and whether it is a row
        already) replaced by (key, low mask, extra copies), or dropped
        where ``dead``; every other row as it is."""
        cols = self.ph, self.pm, self.px
        if exists.any():
            keep = np.ones(len(self.ph), dtype=bool)
            keep[pos[exists]] = False
            cols = [col[keep] for col in cols]
            # Where each key lands among the rows no key touches.
            pos = pos - np.cumsum(exists) + exists
        rows = keys, lo, px
        if dead.any():
            alive = np.flatnonzero(~dead)
            pos = pos[alive]
            rows = [col[alive] for col in rows]
        return _spliced(cols, pos, rows)


#: The generation of a shard that holds nothing.
EMPTY = Generation(np.empty(0, dtype=_U64), np.empty(0, dtype=_U64), {},
                   (np.empty(0, dtype=_U64), np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64)), 0, 0)


def _in_sorted(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Which of ``q`` are in the sorted ``keys`` (``np.isin`` without a
    sort)."""
    if not len(keys):
        return np.zeros(len(q), dtype=bool)
    return keys.take(keys.searchsorted(q), mode="clip") == q


def _spliced(cols, at: np.ndarray, rows) -> list[np.ndarray]:
    """Columns with ``rows`` inserted before the ascending positions
    ``at``, ``np.insert``'s result without its per-call overhead."""
    if not len(cols[0]) or not len(at):
        return list(rows if len(at) else cols)
    n = len(cols[0]) + len(at)
    dst = at + np.arange(len(at))
    old = np.ones(n, dtype=bool)
    old[dst] = False
    out = []
    for col, new in zip(cols, rows):
        o = np.empty(n, dtype=col.dtype)
        o[old] = col
        o[dst] = new
        out.append(o)
    return out


def _starts(*cols: np.ndarray) -> np.ndarray:
    """Where a new key begins in columns sorted together (flags)."""
    new = np.empty(len(cols[0]), dtype=bool)
    new[:1] = True
    new[1:] = cols[0][1:] != cols[0][:-1]
    for col in cols[1:]:
        new[1:] |= col[1:] != col[:-1]
    return new


#: A log of at most this many rows is folded pair by pair in Python
#: (:func:`_short_changes`): NumPy's fixed cost per call outweighs so few
#: rows, and an update burst on ``serve_churn`` folds about five.
_SHORT_LOG = 32


def fold(gen: Generation, lh: np.ndarray, le: np.ndarray, ls: np.ndarray,
         epoch: int) -> Generation:
    """``gen`` with a log of (hash, entity, step) rows applied in order:
    +1 adds a copy, -1 takes one unless the pair holds none.  The
    touched hashes' changes come from :func:`_changes` (NumPy) or, for a
    short log, :func:`_short_changes` (Python)."""
    changes = _short_changes if len(lh) <= _SHORT_LOG else _changes
    keys, pos, exists, lo, px, dead, wide, drop, block, copies = changes(
        gen, lh, le, ls)
    ph, pm, px = gen.merge_sorted(keys, pos, exists, lo, px, dead)
    extra = gen.extra
    if len(drop):
        keep = np.ones(len(extra[0]), dtype=bool)
        keep[drop] = False
        extra = [col[keep] for col in extra]
    if len(block[0]):
        extra = _spliced(extra, extra[0].searchsorted(block[0]), block)
    return Generation(ph, pm, wide, tuple(extra), len(ph),
                      gen.n_copies + copies, epoch, px=px)


def _changes(gen: Generation, lh: np.ndarray, le: np.ndarray,
             ls: np.ndarray) -> tuple:
    """The touched hashes, sorted, with their position in ``gen``, row
    there?, new low mask, extra copies and death; the new spill; the
    overflow entries to drop and the sorted block to insert; the change
    in copies."""
    order = np.lexsort((le, lh))
    h, e = lh[order], le[order]
    hcut = _starts(h)
    cut = np.flatnonzero(hcut | _starts(e))    # each (hash, entity) pair
    kh, ke = h[cut], e[cut]                    # the pairs, sorted
    end = np.append(cut[1:], len(h))
    low = None                                  # min_k S_k; None: all +1
    if ls.min() > 0:
        total = end - cut
    else:
        # Prefix sums of each pair's steps, from the log-wide running sum.
        s = ls[order]
        run = np.cumsum(s, dtype=np.int64)
        before = run[cut] - s[cut]
        total = run[end - 1] - before
        low = np.minimum.reduceat(run, cut) - before
    hfirst = hcut[cut]
    hstarts = np.flatnonzero(hfirst)           # each hash's first pair
    gid = np.cumsum(hfirst) - 1                # pair -> hash
    uh = kh[hstarts]
    ph = gen.ph
    pos = ph.searchsorted(uh)
    if len(ph):
        exists = ph.take(pos, mode="clip") == uh
        old_lo = gen.pm.take(pos, mode="clip") * exists
        old_px = gen.px.take(pos, mode="clip") * exists
    else:
        exists = np.zeros(len(uh), dtype=bool)
        old_lo = np.zeros(len(uh), dtype=_U64)
        old_px = np.zeros(len(uh), dtype=np.int64)
    # c0: each pair's holder bit plus its overflow entry.
    narrow = ke < 64
    bits = (_ONE << (ke & 63).astype(_U64)) * narrow
    c0 = ((old_lo[gid] & bits) != 0).astype(np.int64)
    wide_at = np.flatnonzero(~narrow).tolist()
    if wide_at:
        pairs = zip(kh[wide_at].tolist(), ke[wide_at].tolist())
        c0[wide_at] = [gen.wide.get(hh, 0) >> (ee - 64) & 1
                       for hh, ee in pairs]
    xh, xe, xc = gen.extra
    had = np.flatnonzero(old_px)                # hashes with an overflow
    if len(had):
        # Their overflow entries, matched to their pairs: both sorted by
        # (hash, entity), so in one stable order of the two an entry is
        # directly followed by its pair.
        lo = xh.searchsorted(uh[had])
        n_x = xh.searchsorted(uh[had], "right") - lo
        idx = np.repeat(lo - np.cumsum(n_x) + n_x, n_x) + np.arange(n_x.sum())
        sh, se, sc = xh[idx], xe[idx], xc[idx]
        mine = np.flatnonzero(old_px[gid])
        mh = np.concatenate((sh, kh[mine]))
        me = np.concatenate((se, ke[mine]))
        o = np.lexsort((np.arange(len(mh)) >= len(idx), me, mh))
        is_pair = o >= len(idx)
        k = np.flatnonzero(~is_pair[:-1] & is_pair[1:]
                           & ~_starts(mh[o], me[o])[1:])
        c0[mine[o[k + 1] - len(idx)]] += sc[o[k]]
        stays = np.ones(len(idx), dtype=bool)   # entries no pair touches
        stays[o[k]] = False
    final = c0 + total if low is None else np.maximum(c0 + total,
                                                      total - low)
    over = np.maximum(final - 1, 0)
    more = np.flatnonzero(over)
    drop = np.empty(0, dtype=np.int64)
    block = kh[more], ke[more], over[more]
    if len(had):
        # The touched hashes' overflow: their untouched entries, then
        # every pair left with extra copies, in (hash, entity) order.
        drop = idx
        block = [np.concatenate(c) for c in zip(
            (sh[stays], se[stays], sc[stays]), block)]
        b = np.lexsort(block[1::-1])
        block = [c[b] for c in block]
    # Holder masks, spill and per-row extras of the touched hashes.
    gone = np.bitwise_or.reduceat(bits, hstarts)
    held = np.bitwise_or.reduceat(bits * (final > 0), hstarts)
    lo = (old_lo & ~gone) | held
    px = old_px + np.add.reduceat(over - np.maximum(c0 - 1, 0), hstarts)
    wide = gen.wide
    if wide_at:
        wide = dict(wide)
        for hh, ee, f in zip(kh[wide_at].tolist(), ke[wide_at].tolist(),
                             final[wide_at].tolist()):
            hi = wide.get(hh, 0) & ~(1 << (ee - 64)) | (f > 0) << (ee - 64)
            if hi:
                wide[hh] = hi
            else:
                wide.pop(hh, None)
    dead = lo == 0
    if wide:
        dead &= ~np.isin(uh, np.fromiter(wide, dtype=_U64, count=len(wide)))
    return (uh, pos, exists, lo, px, dead, wide, drop, block,
            int(final.sum() - c0.sum()))


def _short_changes(gen: Generation, lh: np.ndarray, le: np.ndarray,
                   ls: np.ndarray) -> tuple:
    """:func:`_changes` by scalar probes and the rows one by one."""
    phv, pmv, pxv = gen.phv, gen.pmv, gen.pxv
    xh, xe, xc = (memoryview(col) for col in gen.extra)
    touched = {}    # hash -> [row, exists, mask, px, overflow, pairs]
    drop: list[int] = []
    for h, e, s in zip(lh.tolist(), le.tolist(), ls.tolist()):
        t = touched.get(h)
        if t is None:
            i = bisect_left(phv, h)
            t = touched[h] = [i, False, 0, 0, {}, {}]
            if i < len(phv) and phv[i] == h:
                t[1:4] = True, pmv[i] | gen.wide.get(h, 0) << 64, pxv[i]
                j = bisect_left(xh, h) if pxv[i] else len(xh)
                while j < len(xh) and xh[j] == h:   # its overflow entries
                    t[4][xe[j]] = xc[j]
                    drop.append(j)
                    j += 1
        pair = t[5].get(e)
        if pair is None:                            # [c0, copies now]
            c0 = (t[2] >> e & 1) + t[4].get(e, 0)
            pair = t[5][e] = [c0, c0]
        pair[1] = max(pair[1] + s, 0)
    cols: list[tuple] = []      # (hash, row, exists, lo, px, dead)
    block: list[tuple] = []     # (hash, entity, extra copies)
    wide, copies = gen.wide, 0
    for h in sorted(touched):
        i, exists, full, px, over, pairs = touched[h]
        for e, (c0, x) in pairs.items():
            copies += x - c0
            full = full | 1 << e if x else full & ~(1 << e)
            px += max(x - 1, 0) - max(c0 - 1, 0)
            over[e] = x - 1
        block.extend((h, e, over[e]) for e in sorted(over) if over[e] > 0)
        cols.append((h, i, exists, full & _M64, px, not full))
        if full >> 64 != wide.get(h, 0):
            wide = dict(wide) if wide is gen.wide else wide
            if full >> 64:
                wide[h] = full >> 64
            else:
                del wide[h]
    return (*_columns(cols, (_U64, np.int64, bool, _U64, np.int64, bool)),
            wide, np.array(sorted(drop), dtype=np.int64),
            _columns(block, (_U64, np.int64, np.int64)), copies)


def _columns(rows: list[tuple], dtypes) -> tuple[np.ndarray, ...]:
    """Rows of Python values as one array per field."""
    fields = zip(*rows) if rows else [()] * len(dtypes)
    return tuple(np.array(f, dtype=t) for f, t in zip(fields, dtypes))
