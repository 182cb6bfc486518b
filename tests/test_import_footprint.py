"""Import footprint: what a process pays just for ``import repro``.

Every process that uses the library imports it, so a heavy dependency at
module scope costs every run its import time and resident memory.  The
package needs NumPy only; this guard fails if anything reachable from
``import repro`` (analysis tools included) pulls networkx back in.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_import_repro_leaves_networkx_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys; import repro; import repro.analysis; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'networkx'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
