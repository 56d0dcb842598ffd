"""Cooperative time limits — the reproduction of the paper's time limit.

The paper gives every competitor "3 hours or 10⁴× more time than TPA" and
omits its bar when exceeded (NB-LIN from Pokec on, BEAR-APPROX from Google
on, HubPPR's online phase on larger graphs). Our harness scales that rule
down: it runs each phase inside ``time_limit(seconds)``; long-running code
calls ``check()`` at natural checkpoints, which raises ``OutOfTime`` (an
``OOT`` table cell) once the limit has expired. The limit is cooperative,
not a ``SIGALRM`` timer: a signal inside a py4j call breaks Spark.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["OutOfTime", "check", "time_limit"]

_expiry: ContextVar[float | None] = ContextVar("expiry", default=None)  # monotonic instant


class OutOfTime(Exception):
    """Raised by ``check()`` once the current time limit has expired."""


@contextmanager
def time_limit(seconds: float | None):
    """Limit the body to ``seconds`` of wall-clock (``None``: no limit); the
    enclosing limit is back in force on exit, also when the body raises. As a
    decorator, ``time_limit(s)(f)``, it gives each call of ``f`` its own limit."""
    token = _expiry.set(None if seconds is None else time.monotonic() + seconds)
    try:
        yield
    finally:
        _expiry.reset(token)


def check() -> None:
    """Raise ``OutOfTime`` if the current scope has expired; no-op outside any."""
    expiry = _expiry.get()
    if expiry is not None and time.monotonic() > expiry:
        raise OutOfTime("time limit expired")
