"""The lab grid: which cells a sweep runs, and with which seeds.

A :class:`LabCell` names one point in the stress matrix — workload x
fault schedule x scale x (storage backend, placement policy) — plus the
cluster size and traffic duration the cell runs at.  A :class:`LabSpec`
is an ordered collection of cells under one name (``quick`` or
``full``) and one base seed.

Seeds are *derived*, never shared: each cell hashes ``(base_seed,
cell_id)`` through SHA-256 into its own 16-bit seed, so two cells never
reuse a random stream, re-ordering the grid never changes any cell's
behaviour, and the same ``--seed`` always reproduces the same matrix
byte-for-byte (docs/LAB.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

__all__ = ["LabCell", "LabSpec", "derive_seed", "filter_cells",
           "full_grid", "quick_grid",
           "WORKLOADS", "FAULTS", "SCALES", "BACKENDS"]

#: The workload axis.  ``zipf`` is moldy content under heavily skewed
#: (zipf_s = 2.5) traffic — same memory image, hot-key request stream.
WORKLOADS = ("moldy", "nasty", "hpccg", "zipf")

#: The fault-schedule axis (docs/FAULTS.md timings are fractions of the
#: traffic duration; see repro.lab.runner._fault_plan).
FAULTS = ("none", "churn", "partition", "zonal")

#: The scale axis: fixed membership, or the autoscaler force-joining a
#: node mid-stream (docs/ELASTICITY.md).
SCALES = ("static", "autoscale")

#: The config axis: (storage backend, placement policy) pairs.
BACKENDS = (("memory", "mod"), ("mmap", "hd"))


def derive_seed(base_seed: int, cell_id: str) -> int:
    """A stable 16-bit per-cell seed from the sweep seed and cell id
    (16 bits because workload seeds are packed into content IDs — see
    ``repro.workloads.synthetic._base``)."""
    h = hashlib.sha256(f"{base_seed}:{cell_id}".encode()).digest()
    return int.from_bytes(h[:2], "big")


@dataclass(frozen=True)
class LabCell:
    """One point of the stress matrix."""

    workload: str
    fault: str
    scale: str
    storage: str
    placement: str
    n_nodes: int = 4
    duration_s: float = 0.04
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(f"workload must be one of {WORKLOADS}")
        if self.fault not in FAULTS:
            raise ValueError(f"fault must be one of {FAULTS}")
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}")
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    @property
    def cell_id(self) -> str:
        """Stable human-readable identity, also the seed-derivation key
        and the artifact directory name."""
        return (f"{self.workload}-{self.fault}-{self.scale}"
                f"-{self.storage}-{self.placement}")

    @property
    def seed(self) -> int:
        return derive_seed(self.base_seed, self.cell_id)

    @property
    def axes(self) -> dict[str, str]:
        return {"workload": self.workload, "fault": self.fault,
                "scale": self.scale, "storage": self.storage,
                "placement": self.placement}

    def replace(self, **changes) -> LabCell:
        return replace(self, **changes)


@dataclass(frozen=True)
class LabSpec:
    """A named, ordered sweep over cells sharing one base seed."""

    name: str
    base_seed: int
    cells: tuple[LabCell, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.cells)

    def cell(self, cell_id: str) -> LabCell:
        for c in self.cells:
            if c.cell_id == cell_id:
                return c
        raise KeyError(f"no cell {cell_id!r} in grid {self.name!r}")

    def filtered(self, expr: str | None) -> LabSpec:
        return LabSpec(self.name, self.base_seed,
                       tuple(filter_cells(self.cells, expr)))


def filter_cells(cells, expr: str | None) -> list[LabCell]:
    """Cells whose id contains every comma-separated term of ``expr``
    (``"moldy,churn"`` keeps moldy x churn cells; empty keeps all)."""
    terms = [t.strip() for t in (expr or "").split(",") if t.strip()]
    return [c for c in cells
            if all(t in c.cell_id for t in terms)]


def _cross(workloads, faults, scales, backends, base_seed: int,
           n_nodes: int, duration_s: float) -> tuple[LabCell, ...]:
    return tuple(
        LabCell(workload=w, fault=f, scale=s, storage=st, placement=pl,
                n_nodes=n_nodes, duration_s=duration_s,
                base_seed=base_seed)
        for w in workloads for f in faults for s in scales
        for (st, pl) in backends)


def quick_grid(base_seed: int = 0) -> LabSpec:
    """The 16-cell smoke matrix: 2 workloads x 2 faults x 2 scales x
    2 backend/placement combos, 4 nodes, 40 ms of traffic per cell —
    small enough for CI, wide enough to cross every subsystem."""
    return LabSpec("quick", base_seed, _cross(
        ("moldy", "zipf"), ("none", "churn"), SCALES, BACKENDS,
        base_seed, n_nodes=4, duration_s=0.04))


def full_grid(base_seed: int = 0) -> LabSpec:
    """The 64-cell full matrix: every workload x every fault schedule x
    both scales x both backend/placement combos, 6 nodes per cell."""
    return LabSpec("full", base_seed, _cross(
        WORKLOADS, FAULTS, SCALES, BACKENDS,
        base_seed, n_nodes=6, duration_s=0.06))
