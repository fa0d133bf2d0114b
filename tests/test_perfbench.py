"""The contract between the package and the benchmark harness under
perfbench/, which is read here and never changed: the harness traces named
entry points through their bindings, hooks into their parameters and
results, and reads polynomial files through the `cells` and `polys` views.
One traced pass of its smoke problem must record no failure, so a renamed
entry point, a hook parameter or an entry point a run no longer calls
shows here rather than in a benchmark run."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smoke_pass_keeps_the_benchmark_contract(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import harness
    import problems
    import tracing

    session = harness.Session(ROOT, problems.SMOKE, 0, 0.0, tmp_path)
    session.trace(tracing.Tracer())
    assert session.ledger.wrong == []
    assert session.ledger.failed == 0
