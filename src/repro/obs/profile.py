"""Phase-attributed CPU profiling on top of :mod:`cProfile`.

The span tracer answers "where does *simulated* time go"; this module
answers "where does the *host's* CPU go while the simulator computes",
attributed to the same phases the paper's two-phase model uses
(init/collective/local/teardown).  A :class:`ProfileSession` keeps one
``cProfile.Profile`` per phase; the executor switches phases through
``begin_phase``/``end`` and repeated commands aggregate into the same
per-phase profiles.

Two exports per session:

* :meth:`ProfileSession.hotspots` — a top-N table (calls, tottime,
  cumtime) per phase, reusing :class:`repro.util.stats.Table`.
* :meth:`ProfileSession.collapsed_stacks` — flamegraph-compatible folded
  text (``phase;caller;func count`` with counts in microseconds of
  tottime), built from cProfile's caller edges.  cProfile records one
  caller level, so stacks are two frames deep under the phase root —
  enough to see which hot function is reached from where.

Disabled profiling is a shared :data:`NULL_PROFILE` whose methods are
no-ops, so instrumentation stays inline on the executor's phase
transitions; the tier-1 suite pins the disabled-path overhead on the
null command at <5%.

Only one ``cProfile`` can be active per interpreter: do not run
``python -m cProfile`` over a process that also sets
``ObsConfig(profile=True)`` (which profiles executor phases).
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path

from repro.util.stats import Table

__all__ = ["ProfileSession", "NullProfile", "NULL_PROFILE"]


def _func_label(func: tuple) -> str:
    """``file:line(name)`` with the path trimmed to its file name."""
    filename, lineno, name = func
    if filename == "~":                      # built-ins
        return name
    return f"{Path(filename).name}:{lineno}({name})"


class NullProfile:
    """Disabled profiling: every hook is a no-op attribute call."""

    __slots__ = ()
    enabled = False

    def begin_phase(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass


NULL_PROFILE = NullProfile()


class ProfileSession:
    """One ``cProfile.Profile`` per phase, switched on phase transitions."""

    enabled = True

    def __init__(self, top_n: int = 25) -> None:
        self.top_n = top_n
        self._profiles: dict[str, cProfile.Profile] = {}
        self._active: cProfile.Profile | None = None

    # -- recording ---------------------------------------------------------------

    def begin_phase(self, name: str) -> None:
        """Route subsequent CPU time to ``name`` (ends the current phase)."""
        self.end()
        prof = self._profiles.get(name)
        if prof is None:
            prof = self._profiles[name] = cProfile.Profile()
        self._active = prof
        prof.enable()

    def end(self) -> None:
        """Stop attributing CPU time (idempotent)."""
        if self._active is not None:
            self._active.disable()
            self._active = None

    @property
    def phases(self) -> list[str]:
        return list(self._profiles)

    # -- reading -----------------------------------------------------------------

    def _stats(self, phase: str) -> dict:
        prof = self._profiles[phase]
        prof.create_stats()
        return prof.stats  # func -> (cc, nc, tt, ct, callers)

    def total_time(self, phase: str) -> float:
        """Summed tottime (seconds) of one phase's profile."""
        return sum(st[2] for st in self._stats(phase).values())

    def hotspots(self, phase: str | None = None,
                 top_n: int | None = None) -> Table:
        """Top-N functions by tottime, per phase (or one given phase)."""
        self.end()
        top_n = top_n or self.top_n
        t = Table("profile hotspots (host CPU, top "
                  f"{top_n} by tottime per phase)", "phase:function")
        s_calls = t.add_series("calls")
        s_tt = t.add_series("tottime_ms")
        s_ct = t.add_series("cumtime_ms")
        for phname in ([phase] if phase is not None else sorted(self._profiles)):
            stats = self._stats(phname)
            ranked = sorted(stats.items(), key=lambda kv: kv[1][2],
                            reverse=True)[:top_n]
            for func, (cc, nc, tt, ct, _callers) in ranked:
                t.x_values.append(f"{phname}:{_func_label(func)}")
                s_calls.append(nc)
                s_tt.append(tt * 1e3)
                s_ct.append(ct * 1e3)
        return t

    def collapsed_stacks(self, phase: str | None = None) -> str:
        """Flamegraph-compatible folded stacks, one ``frames count`` line.

        Counts are integer microseconds of tottime.  Each function's own
        time is attributed per caller edge (cProfile records exact
        per-edge tottime), rooted at the phase name.
        """
        self.end()
        lines: list[str] = []
        for phname in ([phase] if phase is not None else sorted(self._profiles)):
            for func, (cc, nc, tt, ct, callers) in sorted(
                    self._stats(phname).items(),
                    key=lambda kv: _func_label(kv[0])):
                leaf = _func_label(func).replace(";", ",")
                if not callers:
                    us = int(round(tt * 1e6))
                    if us > 0:
                        lines.append(f"{phname};{leaf} {us}")
                    continue
                for caller, (_cc, _nc, tt_edge, _ct) in sorted(
                        callers.items(), key=lambda kv: _func_label(kv[0])):
                    us = int(round(tt_edge * 1e6))
                    if us > 0:
                        parent = _func_label(caller).replace(";", ",")
                        lines.append(f"{phname};{parent};{leaf} {us}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- export ------------------------------------------------------------------

    def write(self, out_dir: str | Path, stem: str) -> list[Path]:
        """Write ``<stem>.hotspots.txt`` and ``<stem>.folded.txt``."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        hot = out / f"{stem}.hotspots.txt"
        hot.write_text(self.hotspots().render() + "\n")
        folded = out / f"{stem}.folded.txt"
        folded.write_text(self.collapsed_stacks())
        return [hot, folded]

    def print_stats(self, phase: str, top_n: int | None = None) -> str:
        """Classic ``pstats`` text for one phase (debugging aid)."""
        import io

        buf = io.StringIO()
        prof = self._profiles[phase]
        prof.create_stats()
        pstats.Stats(prof, stream=buf).sort_stats(
            "tottime").print_stats(top_n or self.top_n)
        return buf.getvalue()
