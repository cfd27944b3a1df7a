"""Tests of the benchmark's span arithmetic on synthetic span trees.

    python3 -m pytest -q bench/test_layers.py
"""
import math

import layers

# (id, name, start, end, parent, thread)
SERIAL = [
    (1, "cli.main", 0.0, 10.0, None, 0),
    (2, "montecarlo.run_ensemble", 1.0, 9.0, 1, 0),
    (3, "solver.integrate_batch", 2.0, 6.0, 2, 0),
    (4, "solver.g_eval", 2.5, 3.0, 3, 0),
    (5, "solver.lu_solve", 3.0, 4.5, 3, 0),
    (6, "montecarlo.consumers", 6.5, 8.5, 2, 0),
    (7, "degiorgi.iteration_trace", 7.0, 8.0, 6, 0),
    (8, "solver.g_eval", 7.25, 7.5, 7, 0),
]


def close(a, b):
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)


def test_self_time_is_duration_minus_children():
    selfs = layers.self_times(SERIAL)
    expected = {1: 10.0 - 8.0, 2: 8.0 - 4.0 - 2.0, 3: 4.0 - 0.5 - 1.5, 4: 0.5, 5: 1.5,
                6: 2.0 - 1.0, 7: 1.0 - 0.25, 8: 0.25}
    for sid, value in expected.items():
        assert close(selfs[sid], value), (sid, selfs[sid], value)
    assert close(sum(selfs.values()), 10.0)


def test_overlapping_children_are_covered_once():
    spans = [(1, "p", 0.0, 10.0, None, 0),
             (2, "a", 1.0, 5.0, 1, 1),
             (3, "b", 4.0, 7.0, 1, 2)]
    selfs = layers.self_times(spans)
    # the children cover [1, 7] together; each keeps its whole duration
    assert close(selfs[1], 4.0)
    assert close(selfs[2], 4.0)
    assert close(selfs[3], 3.0)


def test_concurrent_threads_keep_their_own_time():
    # two worker threads under one parent, each running a step with a solve
    spans = [(1, "montecarlo.run_ensemble", 0.0, 10.0, None, 0),
             (2, "solver.integrate_batch", 1.0, 9.0, 1, 1),
             (3, "solver.integrate_batch", 1.0, 9.0, 1, 2),
             (4, "solver.lu_solve", 2.0, 4.0, 2, 1),
             (5, "solver.lu_solve", 3.0, 5.0, 3, 2)]
    selfs = layers.self_times(spans)
    assert close(selfs[1], 2.0)
    assert close(selfs[2], 6.0)
    assert close(selfs[3], 6.0)
    assert close(selfs[4], 2.0)
    assert close(selfs[5], 2.0)
    # the threads overlap, so the total exceeds the wall; each thread does not
    assert close(sum(selfs.values()), 18.0)
    per_thread = layers.self_by_thread(spans, selfs)
    assert close(per_thread[0], 2.0)
    assert close(per_thread[1], 8.0)
    assert close(per_thread[2], 8.0)
    metrics = layers.layer_metrics(spans, {})
    assert close(metrics["trace.self_max_thread_s"], 8.0)
    assert close(metrics["solver.integrate_batch.self_s"], 12.0)
    assert close(metrics["solver.lu_solve.s"], 4.0)


def test_layer_metrics_split_g_by_enclosing_span():
    metrics = layers.layer_metrics(SERIAL, {"solver.node_steps": 42})
    assert metrics["solver.g_eval.step_calls"] == 1
    assert metrics["solver.g_eval.post_calls"] == 1
    assert close(metrics["solver.g_eval.step_s"], 0.5)
    assert close(metrics["solver.g_eval.post_s"], 0.25)
    assert metrics["degiorgi.g_eval.calls"] == 1
    assert metrics["jn.g_eval.calls"] == 0
    assert close(metrics["solver.integrate_batch.self_s"], 2.0)
    assert close(metrics["solver.lu_solve.s"], 1.5)
    assert metrics["solver.lu_solve.calls"] == 1
    assert close(metrics["montecarlo.run_ensemble.self_s"], 2.0)
    assert close(metrics["degiorgi.iteration_trace.self_s"], 0.75)
    assert metrics["solver.node_steps"] == 42
    assert metrics["geometry.anchors"] == 0
    assert close(metrics["trace.self_total_s"], 10.0)
    assert close(metrics["trace.self_max_thread_s"], 10.0)


def test_wrappers_record_nesting_and_return_results():
    tracer = layers.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2,
                        after=lambda result, args, kwargs: tracer.add("n", result))
    assert outer(3) == 8
    (sid_in, name_in, _, _, parent_in, thread_in), \
        (sid_out, name_out, _, _, parent_out, thread_out) = tracer.spans
    assert (name_in, name_out) == ("inner", "outer")
    assert parent_in == sid_out and parent_out is None
    assert thread_in == thread_out
    assert tracer.counts["n"] == 8
