"""Cooperative deadlines — the reproduction of the paper's time limit.

The paper gives every competitor "3 hours or 10⁴× more time than TPA" and
omits its bar when exceeded (NB-LIN from Pokec on, BEAR-APPROX from Google
on, HubPPR's online phase on larger graphs). Our harness scales that rule
down: long-running phases receive a ``Deadline`` and call ``check()`` at
natural checkpoints (per block, per push round, per target); expiry raises
``OutOfTime``, which the harness records as an ``OOT`` table cell.
"""
from __future__ import annotations

import time

__all__ = ["Deadline", "OutOfTime"]


class OutOfTime(Exception):
    """Raised by a method when its cooperative deadline expires."""


class Deadline:
    """Wall-clock budget. ``Deadline(None)`` never expires."""

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self._t0 = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def expired(self) -> bool:
        return self.seconds is not None and self.elapsed() > self.seconds

    def check(self) -> None:
        if self.expired():
            raise OutOfTime(f"exceeded {self.seconds:.1f}s budget")

