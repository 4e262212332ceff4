"""Self/busy-time arithmetic of the span log, on hand-built spans."""

import pytest

from spans import SpanLog, patched


def _nested_log() -> SpanLog:
    #  outer [0, 10]
    #    a   [1, 4]
    #      b [2, 3]
    #    a   [5, 9]   (recursive call: a [6, 8] inside)
    #      a [6, 8]
    log = SpanLog()
    outer = log.begin("outer", now=0.0)
    first = log.begin("a", now=1.0)
    inner = log.begin("b", now=2.0)
    log.finish(inner, now=3.0)
    log.finish(first, now=4.0)
    second = log.begin("a", now=5.0)
    nested = log.begin("a", now=6.0)
    log.finish(nested, now=8.0)
    log.finish(second, now=9.0)
    log.finish(outer, now=10.0)
    return log


def test_self_time_subtracts_direct_children_only():
    log = _nested_log()
    assert log.self_s("outer") == pytest.approx(10.0 - 3.0 - 4.0)
    assert log.self_s("b") == pytest.approx(1.0)
    # a[1,4] minus b; a[5,9] minus a[6,8]; a[6,8] has no children.
    assert log.self_s("a") == pytest.approx(2.0 + 2.0 + 2.0)
    total = sum(log.self_s(name) for name in ("outer", "a", "b"))
    assert total == pytest.approx(10.0)


def test_busy_time_counts_outermost_spans_of_the_group():
    log = _nested_log()
    assert log.busy_s("a") == pytest.approx(3.0 + 4.0)
    assert log.busy_s("a", "b") == pytest.approx(3.0 + 4.0)
    assert log.busy_s("b") == pytest.approx(1.0)
    assert log.busy_s("outer", "a") == pytest.approx(10.0)
    assert log.busy_s("missing") == 0.0
    assert log.count("a") == 3
    assert log.count("a", "b", "outer") == 5


def test_spans_must_close_innermost_first():
    log = SpanLog()
    outer = log.begin("outer", now=0.0)
    log.begin("inner", now=1.0)
    with pytest.raises(RuntimeError):
        log.finish(outer, now=2.0)


class _Target:
    def method(self):
        return "method"

    @classmethod
    def factory(cls):
        return cls.__name__


def test_patched_wraps_and_restores_methods():
    calls = []

    def wrap(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)

        return wrapper

    replacements = [(__name__, "_Target.method", wrap), (__name__, "_Target.factory", wrap)]
    original = vars(_Target)["method"]
    with patched(replacements):
        assert _Target().method() == "method"
        assert _Target.factory() == "_Target"
    assert calls == ["method", "factory"]
    assert vars(_Target)["method"] is original
    assert isinstance(vars(_Target)["factory"], classmethod)
    assert _Target.factory() == "_Target"
    assert calls == ["method", "factory"]
