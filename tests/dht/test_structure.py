"""Structural guard: no class in the DHT package grows past 400 lines.

The bar the engine split and the table split were cut to.  A class that
needs more is doing two jobs; split it instead of raising the bar.
"""

import ast
from pathlib import Path

import repro.dht

MAX_CLASS_LINES = 400
DHT_DIR = Path(repro.dht.__file__).parent


def class_lengths():
    """(file:class, lines) for every class under ``repro/dht/``."""
    for path in sorted(DHT_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                start = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                yield (f"{path.relative_to(DHT_DIR)}:{node.name}",
                       node.end_lineno - start + 1)


def test_no_dht_class_is_over_the_bar():
    lengths = dict(class_lengths())
    assert "table.py:LocalDHT" in lengths       # the walk found the code
    over = {name: n for name, n in lengths.items() if n > MAX_CLASS_LINES}
    assert not over, f"classes over {MAX_CLASS_LINES} lines: {over}"
