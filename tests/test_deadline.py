"""Tests for the cooperative time limit (the scaled-down time-limit rule)."""
import time

import pytest

from repro.deadline import OutOfTime, check, time_limit


class TestDeadline:
    def test_none_never_expires(self):
        with time_limit(None):
            check()  # must not raise

    def test_not_expired_within_budget(self):
        with time_limit(60.0):
            check()

    def test_expired_after_budget(self):
        with time_limit(0.05):
            check()
            time.sleep(0.06)
            with pytest.raises(OutOfTime):
                check()

    def test_check_raises_out_of_time(self):
        with time_limit(0.0), pytest.raises(OutOfTime):
            time.sleep(0.01)
            check()

    def test_out_of_time_is_exception(self):
        assert issubclass(OutOfTime, Exception)

    def test_no_scope_never_raises(self):
        check()

    def test_limit_lifted_on_exit(self):
        """Leaving an expired scope, also by ``OutOfTime``, lifts its limit."""
        with pytest.raises(OutOfTime), time_limit(0.0):
            time.sleep(0.01)
            check()
        check()

    def test_decorator_limits_each_call(self):
        """Two calls take longer than the limit, but each is within its own."""
        limited = time_limit(0.05)(lambda: (time.sleep(0.03), check()))
        limited()
        limited()

    def test_inner_scope_replaces_outer(self):
        with time_limit(0.0):
            time.sleep(0.01)
            with time_limit(60.0):
                check()
            with pytest.raises(OutOfTime):
                check()
