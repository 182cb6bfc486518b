"""Golden: what every bundled service command models, to the last bit.

``tools/cmd_fingerprint.py`` runs every service × mode over one fixed
stale world and fingerprints walls, phase breakdowns, stats, the tracer
event stream and what the service wrote.  The committed golden was
recorded at the commit each entry names, so a refactor of the command
path that reorders two float charges, drops an event or changes a record
fails here — and a change that means to move a number re-records exactly
the entries it moves (``python3 tools/cmd_fingerprint.py``, then update
``recorded_at``).
"""

import json
from pathlib import Path

import pytest

from tests.conftest import load_tool

tool = load_tool("cmd_fingerprint")
GOLDEN = json.loads(
    (Path(__file__).parent / "cmd_fingerprint_golden.json").read_text())
ENTRIES = [f"{name}/{mode.value}"
           for name, (_build, modes) in tool.RECIPES.items() for mode in modes]


def test_golden_covers_exactly_the_recipes_and_names_its_commits():
    assert sorted(GOLDEN["entries"]) == sorted(ENTRIES)
    recorded_at = GOLDEN["recorded_at"]
    assert "*" in recorded_at
    assert set(recorded_at) - {"*"} <= set(ENTRIES)


@pytest.mark.parametrize("entry", ENTRIES)
def test_fingerprint_matches_golden(entry):
    name, mode = entry.split("/")
    build, _modes = tool.RECIPES[name]
    got = tool.run(build(), tool.ExecMode(mode))
    want = GOLDEN["entries"][entry]
    # JSON round trip: tuples become lists, as in the golden.
    got = json.loads(json.dumps(got))
    differing = {k: (got.get(k), want.get(k))
                 for k in sorted(got.keys() | want.keys())
                 if got.get(k) != want.get(k)}
    recorded = GOLDEN["recorded_at"].get(entry, GOLDEN["recorded_at"]["*"])
    assert not differing, f"{entry} (recorded at {recorded}) moved"
