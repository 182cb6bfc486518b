"""Order statistics the benchmark reports: median, quartiles, spread.

Quartiles come from :func:`statistics.quantiles` with ``n=4`` (the same
call the driver uses to judge run-to-run spread), so a spread printed here
is the number the driver will compute from the same values.
"""

from __future__ import annotations

import statistics

__all__ = ["summarize", "spread"]


def summarize(values) -> dict:
    """``{"median", "q1", "q3", "n"}`` of a non-empty sample."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot summarize an empty sample")
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "n": len(vals)}


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for a constant)."""
    s = summarize(values)
    if s["median"] == 0:
        return 0.0 if s["q3"] == s["q1"] else float("inf")
    return (s["q3"] - s["q1"]) / abs(s["median"])
