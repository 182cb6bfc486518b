"""One frozen generation of a shard, and its one on-disk form.

A shard's packed state between two merges is a :class:`Generation`: the
sorted ``uint64`` hash column (``ph``), the parallel column of each
hash's holder bits for entities 0..63 (``pm``), the wide spill (hash ->
``mask >> 64`` for the rare rows with holders beyond entity 63), the
multi-copy overflow as three columns (hash, entity, extra copies beyond
the first, sorted by hash then entity), and the hash/copy counters.  It
owns every read kernel over that state — the scalar and vector probes,
``se_scan``, the vector point lookups — and the merge that turns it plus
a write overlay into the columns of the *next* generation.
:meth:`Generation.union` folds the live shards' generations into one, the
cluster-wide view a collective query scans once.

A generation is never written in place: its arrays are read-only and a
merge builds new ones, so a reader holding one (a caller of
``items_arrays``, a collective scan's results) never sees a later write.  This is
BlobSeer's versioning (PAPERS.md, "Distributed Management of Massive
Data"): a writer publishes a new immutable version instead of changing
the one readers have.

The on-disk codec (docs/STORAGE.md) is one checksummed file: a header of
little-endian u64 words, the five columns, then the wide spill.
:meth:`Generation.save` writes it in one :func:`atomic_write` and
:meth:`Generation.load` maps it back read-only, refusing any file whose
format word, size or CRC-32 disagrees.  Storage commits and warm-restart
loads are its two users.
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

__all__ = ["Generation", "overflow_columns", "atomic_write"]

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


def _crc(raw) -> int:
    """CRC-32 of a generation file's bytes, its own header word left out."""
    return zlib.crc32(raw[8 * _HEAD:], zlib.crc32(raw[:8 * _HEAD - 8]))


def overflow_columns(extra: dict[int, dict[int, int]]) -> Columns:
    """The overflow dict (hash -> {entity: extra copies}) as read-only
    ``(hashes, entities, counts)`` columns sorted by (hash, entity)."""
    n = sum(map(len, extra.values()))
    h = np.fromiter((h for h, ex in extra.items() for _ in ex),
                    dtype=_U64, count=n)
    e = np.fromiter((e for ex in extra.values() for e in ex),
                    dtype=np.int64, count=n)
    c = np.fromiter((c for ex in extra.values() for c in ex.values()),
                    dtype=np.int64, count=n)
    order = np.lexsort((e, h))
    cols = (h[order], e[order], c[order])
    for col in cols:
        col.setflags(write=False)
    return cols


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
    # ph and pm as buffers whose items are Python ints: the scalar probe.
    phv: memoryview = field(init=False, repr=False)
    pmv: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for col in (self.ph, self.pm, *self.extra):
            col.setflags(write=False)
        object.__setattr__(self, "phv", memoryview(self.ph))
        object.__setattr__(self, "pmv", memoryview(self.pm))

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
                                self.n_copies, self.epoch, path)

    @staticmethod
    def load(path: str | Path) -> tuple[int, Generation] | None:
        """The commit number and generation of a file :meth:`save` wrote,
        mapped read-only — None when it is missing, or is not exactly
        such a file: another format word, another size, or a CRC that
        disagrees (a flipped or torn byte anywhere)."""
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
        return gen, Generation._over(raw, n, x, wide, n_hashes, n_copies,
                                     epoch, path)

    @staticmethod
    def _over(raw: np.ndarray, n: int, x: int, wide: dict[int, int],
              n_hashes: int, n_copies: int, epoch: int,
              path: str | Path) -> Generation:
        """The generation whose columns are views of a mapped file."""
        cols = raw[8 * _HEAD:8 * (_HEAD + 2 * n + 3 * x)].view(_U64)
        xh, xe, xc = cols[2 * n:].reshape(3, x)
        return Generation(cols[:n], cols[n:2 * n], wide,
                          (xh, xe.view(np.int64), xc.view(np.int64)),
                          n_hashes, n_copies, epoch, str(path))

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
                          sum(g.n_copies for g in gens))

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

    def held_by(self, entity_id: int) -> list[int]:
        """The hashes an entity holds, ascending for entities < 64."""
        if entity_id < 64:
            bit = (self.pm >> _U64(entity_id)) & _ONE
            return self.ph[bit != 0].tolist()
        hi_bit = 1 << (entity_id - 64)
        return [h for h, hi in self.wide.items() if hi & hi_bit]

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

    def scalar_copies(self, hashes,
                      extra: dict[int, dict[int, int]]) -> np.ndarray:
        """:meth:`bulk_num_copies` by one scalar probe per hash, the
        overflow read from ``extra`` (hash -> {entity: extra copies}: the
        owning shard's write side, current even where :attr:`extra` is
        not) — cheaper for a handful of hashes, the same answer."""
        counts = []
        for hh in hashes:
            hh = int(hh)
            n = self.mask(hh).bit_count()
            if n and hh in extra:
                n += sum(extra[hh].values())
            counts.append(n)
        return np.array(counts, dtype=np.int64)

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
        holders, then every overflow entry of a held hash, summed by two
        probes of the overflow columns."""
        counts = np.bitwise_count(masks).astype(np.int64)
        if wide:
            for i, hh in enumerate(q.tolist()):
                if hh in wide:
                    counts[i] = wide[hh].bit_count()
        xh, _xe, xc = self.extra
        if len(xh):
            upto = np.concatenate(([0], np.cumsum(xc)))
            extras = (upto[xh.searchsorted(q, side="right")]
                      - upto[xh.searchsorted(q)])
            counts += extras * (counts > 0)
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

    # -- the merge into the next generation ----------------------------------------

    def merge(self, delta: dict[int, int]) \
            -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
        """The next generation's ``(ph, pm, wide)``: this one with an
        overlay of hash -> full mask (0: deleted) applied."""
        n = len(delta)
        dk = np.fromiter(delta, dtype=_U64, count=n)
        wide = self.wide
        spill = bool(wide)
        if not spill:
            try:
                dl = np.fromiter(delta.values(), dtype=_U64, count=n)
                dead = dl == 0
            except OverflowError:            # a mask with bits >= 64
                spill = True
        if spill:
            dl = np.fromiter((v & _M64 for v in delta.values()), dtype=_U64,
                             count=n)
            dead = np.fromiter((v == 0 for v in delta.values()), dtype=bool,
                               count=n)
            # Overlay values are full masks, so the high part is
            # refreshed (or dropped) wholesale.
            wide = dict(wide)
            for h, v in delta.items():
                hi = v >> 64
                if hi:
                    wide[h] = hi
                elif wide:
                    wide.pop(h, None)
        order = np.argsort(dk, kind="stable")
        return (*self.merge_sorted(dk[order], dl[order], dead[order]), wide)

    def merge_pairs(self, h: np.ndarray, e: np.ndarray, merge_at: int):
        """A batch of (hash, entity < 64) insert pairs merged straight into
        the next generation's ``(ph, pm)``: the pairs sorted, deduped and
        grouped in NumPy.  Also returns the overflow it adds as
        (hashes, entities, counts) lists and how many hashes it creates —
        or None when the batch has fewer than ``merge_at`` distinct
        hashes.  Assumes no wide spill."""
        order = np.lexsort((e, h))
        hs, es = h[order], e[order]
        n = len(hs)
        newpair = np.empty(n, dtype=bool)
        newpair[0] = True
        newpair[1:] = (hs[1:] != hs[:-1]) | (es[1:] != es[:-1])
        starts = np.flatnonzero(newpair)
        ph, pe = hs[starts], es[starts]
        newhash = np.empty(len(ph), dtype=bool)
        newhash[0] = True
        newhash[1:] = ph[1:] != ph[:-1]
        hstarts = np.flatnonzero(newhash)
        if len(hstarts) < merge_at:
            return None
        uh = ph[hstarts]
        cur_lo = self.lo_of(uh)
        shift = pe.astype(_U64)
        gid = np.cumsum(newhash) - 1         # pair -> distinct-hash index
        held = (cur_lo[gid] >> shift) & _ONE
        # A pair seen c times contributes c copies, of which
        # (c - 1 + already held) land in the overflow.
        extra_add = np.diff(np.append(starts, n)) - 1 + held.astype(np.int64)
        more = np.flatnonzero(extra_add > 0)
        new_lo = cur_lo | np.bitwise_or.reduceat(_ONE << shift, hstarts)
        return (*self.merge_sorted(uh, new_lo, np.zeros(len(uh), dtype=bool)),
                (ph[more].tolist(), pe[more].tolist(),
                 extra_add[more].tolist()),
                int(np.count_nonzero(cur_lo == 0)))

    def without(self, drop: np.ndarray) \
            -> tuple[np.ndarray, np.ndarray, dict[int, int], list[int], int]:
        """The next generation's ``(ph, pm, wide)`` with the rows at the
        sorted indices ``drop`` removed, plus the dropped hashes and how
        many holder bits they carried."""
        keep = np.ones(len(self.ph), dtype=bool)
        keep[drop] = False
        gone = self.ph[drop].tolist()
        bits = int(np.bitwise_count(self.pm[drop]).sum())
        wide = dict(self.wide)
        for h in gone:
            hi = wide.pop(h, None)
            if hi is not None:
                bits += hi.bit_count()
        return self.ph[keep], self.pm[keep], wide, gone, bits

    def merge_sorted(self, keys: np.ndarray, lo: np.ndarray,
                     dead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """New ``(ph, pm)``: sorted (key, low mask, deleted?) columns
        merged into these — rows that exist updated or dropped, the rest
        inserted."""
        ph, pm = self.ph, self.pm
        pos = np.searchsorted(ph, keys)
        in_range = pos < len(ph)
        exists = np.zeros(len(keys), dtype=bool)
        if in_range.any():
            exists[in_range] = ph[pos[in_range]] == keys[in_range]
        upd = exists & ~dead
        if upd.any():
            pm = pm.copy()               # a reader may hold this column
            pm[pos[upd]] = lo[upd]
        del_rows = pos[exists & dead]
        if len(del_rows):
            keep = np.ones(len(ph), dtype=bool)
            keep[del_rows] = False
            ph, pm = ph[keep], pm[keep]
        new = ~exists & ~dead
        if new.any():
            nk, nv = keys[new], lo[new]
            ins = np.searchsorted(ph, nk)
            ph = np.insert(ph, ins, nk)
            pm = np.insert(pm, ins, nv)
        return ph, pm


#: The generation of a shard that holds nothing.
EMPTY = Generation(np.empty(0, dtype=_U64), np.empty(0, dtype=_U64), {},
                   overflow_columns({}), 0, 0)
