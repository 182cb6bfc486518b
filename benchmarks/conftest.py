"""Figure regeneration support: run one experiment, archive its table.

Every file here requests one :data:`repro.harness.ALL_EXPERIMENTS` runner
via the ``figure`` fixture — the same call ``repro run <name>`` makes —
which prints the regenerated paper table (visible with ``-s``), archives
it under ``benchmarks/results/<name>.txt`` for EXPERIMENTS.md, and hands
the table back for the shape assertions that pin each paper claim.

Run with::

    pytest benchmarks/

Nothing is timed here: sim-time figures are deterministic, and Figs 5/8
measure host nanoseconds inside their own runners.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness import ALL_EXPERIMENTS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def figure():
    """Run one experiment; archive + print its Table and return it.

    ``figure("fig05", sizes=(...), reps=...)`` calls
    ``ALL_EXPERIMENTS["fig05"]`` with those keyword arguments.  ``out``
    renames the archived file when it differs from the experiment id
    (e.g. ``monitor`` -> ``monitor_overhead.txt``).
    """

    def _run(name: str, out: str | None = None, **params):
        table = ALL_EXPERIMENTS[name](**params)
        RESULTS_DIR.mkdir(exist_ok=True)
        text = table.render()
        (RESULTS_DIR / f"{out or name}.txt").write_text(text + "\n")
        print()
        print(text)
        return table

    return _run
