"""Span bookkeeping: nesting, op ids, self-time arithmetic, wrappers."""

import pytest

from bench.trace import Tracer, self_times


def span(name, start, end, parent=-1, op_id=None):
    return [name, start, end, parent, op_id]


def test_self_time_subtracts_children():
    spans = [
        span("op.quick", 0.0, 10.0),
        span("core.epoch.pin", 1.0, 4.0, parent=0),
        span("sketches.absorb", 2.0, 3.0, parent=1),
        span("core.bounds.ts_build", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    # Probes fanned over worker threads overlap in time.
    spans = [
        span("query.run_tasks", 0.0, 10.0),
        span("probe", 1.0, 6.0, parent=0),
        span("probe", 4.0, 8.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_child_sticking_out_is_clipped_to_parent():
    spans = [span("a", 0.0, 5.0), span("b", 4.0, 9.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_same_name_nesting_never_double_counts():
    spans = [span("x", 0.0, 4.0), span("x", 1.0, 3.0, parent=0)]
    assert sum(self_times(spans)) == pytest.approx(4.0)


def test_spans_of_one_operation_share_op_id():
    tracer = Tracer()
    with tracer.span("op.quick"):
        with tracer.span("core.epoch.pin"):
            pass
    with tracer.span("op.accurate"):
        with tracer.span("core.filters.search"):
            pass
    with tracer.span("warehouse.adopt"):  # background work: no operation
        pass
    ids = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert ids == [
        ("op.quick", -1, 0), ("core.epoch.pin", 0, 0),
        ("op.accurate", -1, 1), ("core.filters.search", 2, 1),
        ("warehouse.adopt", -1, None),
    ]
    assert all(s[2] >= s[1] for s in tracer.spans)


class _Layer:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return [cls.__name__] * x


def test_wrap_is_a_pass_through_and_restore_undoes_it():
    tracer = Tracer()
    seen = []
    tracer.wrap(_Layer, "method", "layer.method")
    tracer.wrap(_Layer, "build", "layer.build",
                lambda t, args, result: seen.append(len(result)))
    assert _Layer().method(1) == 2
    assert _Layer.build(3) == ["_Layer"] * 3
    with tracer.paused():
        assert _Layer().method(1) == 2
    assert [s[0] for s in tracer.spans] == ["layer.method", "layer.build"]
    assert seen == [3]
    tracer.restore()
    _Layer().method(1)
    assert len(tracer.spans) == 2
    assert isinstance(_Layer.__dict__["build"], classmethod)
