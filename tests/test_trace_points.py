"""The benchmark's traced run wraps masim functions by module attribute name.

A refactor that renames or drops one of those attributes (harness.apply_channel,
mover.measure_power, harness.sweep_measure, ...) breaks the traced benchmark run.
Installing and removing the trace points here surfaces that in the test suite.
"""

from pathlib import Path

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
