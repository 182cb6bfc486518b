"""The environment block every JSON result carries, and what to warn about."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

__all__ = ["environment", "environment_warnings"]


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None (the driver's checkout is no git repo)."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
        "loadavg_1m": os.getloadavg()[0],
        "concord_env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith("CONCORD_")},
    }


def environment_warnings(env: dict) -> list[str]:
    """Conditions under which host numbers are not comparable."""
    out = []
    if env["nproc"] and env["loadavg_1m"] > env["nproc"]:
        out.append(f"1-min load average {env['loadavg_1m']:.2f} exceeds "
                   f"nproc={env['nproc']}: host-clock metrics will be noisy")
    if env["concord_env"]:
        out.append("CONCORD_* variables are set ("
                   + ", ".join(env["concord_env"]) + "); the workloads pass "
                   "their configuration explicitly, so they are ignored")
    return out
