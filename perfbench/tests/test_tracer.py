"""Tests of the benchmark's tracer and workloads on a tiny corpus.

    python -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench import tracer as tc
from perfbench import workloads as wl
from perfbench.run import COUNT_METRICS, ROOT

# sizes as in tests/conftest.py: tiny_generator_config and tiny_dims
TINY = wl.Scale(
    n=160, sweep_n=160, probe_models=3, probe_base_clips=160,
    corpus=dict(seq_len={"language": 3, "audio": 4, "video": 3},
                feat_dim={"language": 3, "audio": 4, "video": 2},
                skill_scale=3.0, noise_scale=0.2),
    dims=dict(input_dims={"language": 3, "audio": 4, "video": 2}, gru_width=4,
              att_proj=3, trunk_width=4, adv_hidden=3, ns_hidden=4))

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _span(i, start, end, parent, thread=1):
    s = tc.Span(i, f"s{i}", start, parent, 0, thread)
    s.end = end
    return s


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [_span(0, 0.0, 10.0, None),
             _span(1, 1.0, 4.0, 0, thread=1),
             _span(2, 3.0, 6.0, 0, thread=2),    # overlaps span 1, another thread
             _span(3, 8.0, 12.0, 0, thread=2),   # ends after its parent
             _span(4, 2.0, 3.5, 1, thread=1),    # grandchild of span 0
             _span(5, 5.0, 5.5, 2, thread=2)]
    own = tc.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)   # union [1, 6] and [8, 10]
    assert own[1] == pytest.approx(3.0 - 1.5)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.5)


def test_worker_thread_spans_nest_under_the_operation():
    tracer = tc.Tracer()
    with tracer.op(0):
        outer = tracer.open("outer")
        barrier = threading.Barrier(2, timeout=10)

        def work():
            span = tracer.open("worker")
            barrier.wait()          # both workers hold a span at once
            tracer.close(span)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        tracer.close(outer)
    workers = [s for s in tracer.spans if s.name == "worker"]
    assert len(workers) == 2
    assert all(s.parent == outer.id and s.op == 0 for s in workers)
    assert len({s.thread for s in workers}) == 2


def test_install_wraps_every_binding_and_uninstall_restores_it():
    import fairavi.cli
    import fairavi.evaluation
    import fairavi.model
    import fairavi.training
    predict = fairavi.model.predict
    forward = fairavi.model.HireabilityModel.__dict__["forward_base"]
    tracer = tc.Tracer()
    tracer.install()
    try:
        for module in (fairavi.model, fairavi.training, fairavi.evaluation, fairavi.cli):
            assert module.predict is not predict
            assert module.predict.__wrapped__ is predict
        assert fairavi.model.HireabilityModel.__dict__["forward_base"] is not forward
    finally:
        tracer.uninstall()
    for module in (fairavi.model, fairavi.training, fairavi.evaluation, fairavi.cli):
        assert module.predict is predict
    assert fairavi.model.HireabilityModel.__dict__["forward_base"] is forward


def _traced_run(name, seed, workdir):
    workload = wl.WORKLOADS[name](seed, TINY, str(workdir))
    workload.setup()
    untraced = wl.measure(workload, 0)
    tracer = tc.Tracer()
    tracer.install()
    try:
        traced = wl.measure(workload, 0, tracer, start=len(untraced))
    finally:
        tracer.uninstall()
    values, sources = tc.layer_metrics(tracer.spans, len(traced))
    return untraced + traced, values, sources, workload.trace_metrics(untraced)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {(name, seed): _traced_run(name, seed, tmp_path_factory.mktemp(name))
            for name in wl.WORKLOADS for seed in (3, 4)}


def test_every_operation_passes_its_checks(runs):
    for key, (ops, _, _, _) in runs.items():
        assert ops and all(op.ok for op in ops), (key, [op.error for op in ops])


def test_every_per_layer_metric_gets_a_span(runs):
    extra = {"trace.overhead_frac"}   # computed by run.py from two measurements
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name in extra:
            continue
        assert any(sources.get(name, 0) >= 1 or name in more
                   for _, _, sources, more in runs.values()), name


def test_exact_counts_repeat_across_traced_runs(runs):
    for name in wl.WORKLOADS:
        first, second = runs[(name, 3)][1], runs[(name, 4)][1]
        assert [first[m] for m in COUNT_METRICS] == [second[m] for m in COUNT_METRICS], name


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
