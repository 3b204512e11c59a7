import types

from tracing import (
    OP,
    Tracer,
    covered_length,
    layer_totals,
    phase_totals,
    self_times,
)


def span(name, start, end, parent=-1, op=1):
    return [name, start, end, parent, op]


def test_covered_length_merges_overlaps():
    assert covered_length([(10, 40), (30, 50), (60, 70), (65, 66)]) == 50
    assert covered_length([]) == 0


def test_self_time_subtracts_nested_children():
    spans = [
        span(OP, 0, 100),
        span("dispatch", 10, 40, parent=0),
        span("monitor", 20, 30, parent=1),
        span("telemetry", 50, 60, parent=0),
    ]
    assert self_times(spans) == [60, 20, 10, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("vm", 0, 100),
        span("dispatch", 10, 40, parent=0),
        span("runtime", 30, 50, parent=0),
    ]
    assert self_times(spans)[0] == 60


def test_recursive_layer_counted_once_inclusive():
    # a clone dispatch runs a child CPU that dispatches again
    spans = [
        span("dispatch", 0, 50),
        span("vm", 10, 40, parent=0),
        span("dispatch", 20, 30, parent=1),
    ]
    count, self_ns, incl_ns, _ = layer_totals(spans)
    assert count["dispatch"] == 2
    assert incl_ns["dispatch"] == 50
    assert self_ns["dispatch"] == 20 + 10
    assert self_ns["vm"] == 20


def test_delegating_launch_is_one_launch():
    spans = [
        span("mechanisms.launch", 0, 10),
        span("mechanisms.launch", 2, 8, parent=0),
    ]
    count, self_ns, incl_ns, _ = layer_totals(spans)
    assert count["mechanisms.launch"] == 1
    assert incl_ns["mechanisms.launch"] == 10
    assert self_ns["mechanisms.launch"] == 10


def test_phases_split_each_op():
    spans = [
        span(OP, 0, 100),
        span("mechanisms.launch", 5, 20, parent=0),
        span("sched", 25, 95, parent=0),
        span("vm", 26, 90, parent=2),
        span("workload", 40, 41, parent=3),
    ]
    assert phase_totals(spans) == {
        "launch": 20, "boot": 20, "steady": 55, "teardown": 5,
    }


def test_wrappers_record_parent_and_op_and_uninstall():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    tracer.wrap(Layer, "outer", "a")
    tracer.wrap(Layer, "inner", "b")
    op = tracer.begin_op()
    assert Layer().outer() == 2
    tracer.end(op)
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [(OP, -1, 1), ("a", 0, 1), ("b", 1, 1)]
    assert all(s[2] > s[1] for s in tracer.spans)
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original


def test_wrapped_module_function_keeps_raising():
    tracer = Tracer()
    module = types.SimpleNamespace()

    def boom():
        raise KeyError("x")

    module.boom = boom
    tracer.wrap(module, "boom", "policy")
    try:
        module.boom()
    except KeyError:
        pass
    assert tracer.spans[0][0] == "policy" and tracer.spans[0][2] > 0
    tracer.begin_op()  # the stack unwound: a new op has no parent
    assert tracer.spans[-1][3] == -1
