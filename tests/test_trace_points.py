"""The benchmark's traced run wraps masim functions by module attribute name.

A refactor that renames or drops one of those attributes (harness.apply_channel,
mover.measure_power, harness.sweep_measure, ...) breaks the traced benchmark run,
and one that changes a signature the worker calls breaks every run. Installing
and removing the trace points, and one tiny traced operation of every workload
through the worker's gates, surface both in the test suite, together with the
exact counts run.py's --self-check requires of each workload.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_points_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    tracer = tracing.Tracer("t")
    try:
        worker.install_trace_points(tracer)
        installed = list(tracer._installed)
    finally:
        tracer.uninstall()
    assert len(installed) == 34
    for owner, attr, original in installed:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} was not restored"


@pytest.mark.parametrize("name, layer", [("placement", "mover"), ("sound-hi", "estimator"),
                                         ("sound-paper", "estimator"), ("pipeline-hi", "harness")])
def test_traced_operation_passes_its_gate(monkeypatch, tmp_path, name, layer):
    # the worker's calls into masim and the trace points' counters run only
    # here and in the benchmark itself; one tiny operation of each kind
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracing
    import worker

    workload = worker.make_workload(name, True, tmp_path)
    tracer = tracing.Tracer("t")
    try:
        worker.install_trace_points(tracer)
        result = workload.run(0, 0, tracer)
    finally:
        tracer.uninstall()
    problems, _, records = workload.check(result)
    assert problems == []
    assert records > 0
    metrics = worker.layer_metrics(tracer, 1, [1.0])
    assert metrics[f"{layer}.busy_share"] > 0
    for key, workloads in run.EXACT_COUNTS.items():
        if name in workloads:
            assert metrics.get(key, 0) > 0, key
