"""Tests for the cooperative deadline (the scaled-down time-limit rule)."""
import time

import pytest

from repro.deadline import Deadline, OutOfTime


class TestDeadline:
    def test_none_never_expires(self):
        d = Deadline(None)
        assert not d.expired()
        d.check()  # must not raise

    def test_not_expired_within_budget(self):
        d = Deadline(60.0)
        assert not d.expired()
        d.check()

    def test_expired_after_budget(self):
        d = Deadline(0.0)
        time.sleep(0.01)
        assert d.expired()

    def test_check_raises_out_of_time(self):
        d = Deadline(0.0)
        time.sleep(0.01)
        with pytest.raises(OutOfTime):
            d.check()

    def test_elapsed_monotone(self):
        d = Deadline(10.0)
        e1 = d.elapsed()
        time.sleep(0.01)
        assert d.elapsed() > e1

    def test_out_of_time_is_exception(self):
        assert issubclass(OutOfTime, Exception)
