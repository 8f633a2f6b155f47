"""Periodic progress for long runs: the observability the service streams.

A :class:`Heartbeat` is a tiny duck-typed sink the exploration loops
tick as they run — once per level/round in the batch and sharded
drivers.  Every ``every_s``
seconds it emits one line::

    [heartbeat] t=63s states=1203456 (+90123, 30041/s) frontier=4521 transitions=5602341 rss=87.4MiB

``repro check --heartbeat SECS`` wires one up for local runs; the
service coordinator builds the same numbers from per-worker ``ping``
replies instead (see :mod:`repro.service.coordinator`), so a local run
and a watched job read identically.

The tick path is deliberately branch-cheap (one clock probe and a
subtraction when the interval has not elapsed) so engines can call it
unconditionally inside hot loops.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional


def current_rss_bytes() -> int:
    """Resident set size of this process in bytes (0 when unknowable).

    Prefers the *current* RSS from ``/proc/self/status`` (Linux); falls
    back to ``ru_maxrss`` (the peak, close enough for trend lines) on
    platforms without procfs.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return 0


def format_bytes(n: int) -> str:
    """``87.4MiB``-style rendering (heartbeat lines and worker tables)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


class Heartbeat:
    """Emit one progress line every ``every_s`` seconds of run time.

    ``emit`` receives the formatted line (default: stderr, so progress
    never pollutes parseable stdout output); ``clock`` is a test seam
    (monotonic seconds).  ``tick`` takes the run's *cumulative* states
    and transitions plus the instantaneous frontier size; the rate is
    computed over the interval since the previous line.
    """

    def __init__(
        self,
        every_s: float,
        emit: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        label: str = "",
    ) -> None:
        if every_s <= 0:
            raise ValueError(f"heartbeat interval must be positive: {every_s}")
        self.every_s = float(every_s)
        self.label = label
        self._emit = emit if emit is not None else self._emit_stderr
        self._clock = clock
        self._start = clock()
        self._last = self._start
        self._last_states = 0
        self.lines = 0

    @staticmethod
    def _emit_stderr(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    def tick(self, states: int, frontier: int = 0, transitions: int = 0) -> None:
        now = self._clock()
        elapsed = now - self._last
        if elapsed < self.every_s:
            return
        delta = states - self._last_states
        rate = delta / elapsed if elapsed > 0 else 0.0
        prefix = f"[heartbeat{(' ' + self.label) if self.label else ''}]"
        self._emit(
            f"{prefix} t={now - self._start:.0f}s states={states}"
            f" (+{delta}, {rate:.0f}/s) frontier={frontier}"
            f" transitions={transitions}"
            f" rss={format_bytes(current_rss_bytes())}"
        )
        self._last = now
        self._last_states = states
        self.lines += 1
