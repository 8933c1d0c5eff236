"""Tests of the benchmark itself: the tracer's work counts repeat exactly
and match counts known from outside, so a binding the tracer missed shows
as a zero.  Not collected by a plain `pytest` run; run it with

    python3 -m pytest perfbench/selftest.py
"""

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import pace  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from jetlag import checks, cli, fields, geometry  # noqa: E402


def _traced(action):
    tracer = spans.Tracer()
    tracer.install()
    try:
        action(tracer)
    finally:
        tracer.uninstall()
    return tracer.analyse(), {k: v["calls"] for k, v in tracer.table().items()}


def _invoke(workload, name, seed=5):
    run = bench.Run(workload, seed)
    metrics, calls = _traced(lambda tracer: run.invoke(name, tracer))
    assert run.attempted == 1 and run.failed == 0
    return metrics, calls


def test_cli_check_counts_repeat_and_match_outside_count():
    def action(tracer):
        tracer.on = True
        assert cli.main(["check", "--config", "electrodynamics_l2"]) == 0

    first, calls = _traced(action)
    again, calls_again = _traced(action)
    assert {m: first[m] for m in spans.COUNT_METRICS} \
        == {m: again[m] for m in spans.COUNT_METRICS}
    assert calls == calls_again
    # counted independently of this tracer, on the seed code
    assert first["geometry.geo_calls"] == 20819
    assert first["geometry.geo_distinct"] == 6693
    assert first["geometry.jets_calls"] == 1470
    assert first["numdiff.stencil_calls"] == 9723
    budgets = checks._BUDGETS
    assert calls["fields.maxwell_residuals"] == budgets["maxwell"]
    assert calls["fields.maxwell_simple_residuals"] \
        == budgets["maxwell-simple"]
    assert calls["fields.deflection_identities"] == budgets["deflection"]
    assert calls["fields.conservation_residuals"] == budgets["conservation"]
    assert calls["checks.run_checks"] == 1
    for suite in spans.REPORTED_SUITES:
        assert calls[f"suite.{suite}"] == 1
        assert first[f"checks.{suite}.ms_per_point"] > 0
    for metric in ("expr.compile_calls", "expr.compile_nodes",
                   "expr.eval_calls", "dtensor.covd_calls"):
        assert first[metric] > 0


def test_curve_bypasses_stencils_jets_and_cache():
    metrics, calls = _invoke("curve", "sphere_l1")
    assert metrics["dynamics.rk4_steps"] == 1000
    assert calls["dynamics.harmonic_rhs"] == 4000
    assert metrics["geometry.geo_calls"] == 4001     # one in set-up
    assert metrics["geometry.geo_misses"] == 4001
    assert metrics["geometry.geo_hit_ratio"] == 0.0
    assert metrics["numdiff.stencil_calls"] == 0
    assert metrics["geometry.jets_calls"] == 0
    assert calls["dynamics.action"] == 1
    assert calls["cli.load_config"] == 1


def test_chart_counts_repeat():
    first, calls = _invoke("chart", "electrodynamics_l2")
    again, calls_again = _invoke("chart", "electrodynamics_l2")
    assert {m: first[m] for m in spans.COUNT_METRICS} \
        == {m: again[m] for m in spans.COUNT_METRICS}
    assert calls == calls_again


def test_chart_bypasses_stencils_and_jets():
    metrics, calls = _invoke("chart", "sphere_l1")
    assert calls["dtensor.transform_point"] == 101    # one in set-up
    assert calls["geometry.canonical_spray"] == 200
    assert calls["geometry.transformed_space"] == 1
    assert metrics["numdiff.stencil_calls"] == 0
    assert metrics["geometry.jets_calls"] == 0
    assert metrics["geometry.transformed_ms_per_point"] > 0
    assert metrics["expr.compile_nodes"] > 0


def test_uninstall_restores_every_binding():
    before = (checks.maxwell_residuals, cli.maxwell_residuals,
              geometry.LagrangeSpace.geometry_at)
    tracer = spans.Tracer()
    tracer.install()
    assert checks.maxwell_residuals is fields.maxwell_residuals
    assert checks.maxwell_residuals.__wrapped__ is before[0]
    assert cli.maxwell_residuals.__wrapped__ is before[0]
    tracer.uninstall()
    assert (checks.maxwell_residuals, cli.maxwell_residuals,
            geometry.LagrangeSpace.geometry_at) == before
    assert checks.maxwell_residuals is fields.maxwell_residuals


def test_tail_has_ten_samples_beyond():
    assert bench.tail(range(1, 13)) == (2, 100 * 2 / 12)
    assert bench.tail(range(100)) == (89, 90.0)
    assert bench.tail(range(10)) is None


def test_repeat_does_the_minimum_then_stops_before_overrunning():
    assert bench.repeat(1e-9, 3, lambda: None) == 3
    assert bench.repeat(0.05, 1, lambda: None) > 3


def test_round_totals_sum_all_three_builtins():
    run = bench.Run("curve", 2, paced=True)
    total = run.round()
    mine = run.samples[-len(workloads.BUILTINS):]
    assert [b for b, *_ in mine] == list(workloads.BUILTINS)
    assert total == tuple(sum(x[i] for x in mine) for i in (1, 2, 3))
    assert run.totals == [total]
    assert all(r > 0 for *_, r in mine)


def _busy(seconds):
    end = pace.perf_counter() + seconds
    while pace.perf_counter() < end:
        pass


def test_pacer_samples_during_the_work_and_leaves_it_out():
    with pace.Pacer() as pacer:
        _busy(0.35)
    # one burst on each side of the work, and about three inside it
    assert len(pacer.bursts) >= 4
    assert 0 < pacer.spent < 0.35
    assert pacer.work_s == pytest.approx(0.35 - pacer.spent, abs=0.01)
    assert pacer.ratio == pytest.approx(
        pacer.work_s * len(pacer.bursts) / sum(pacer.bursts))


def test_pacer_stops_its_timer_when_the_work_raises():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError):
        with pace.Pacer():
            _busy(0.1)
            raise RuntimeError("broken on purpose")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_raising_work_still_prints_a_result(monkeypatch, capsys):
    def broken(state, inputs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setitem(workloads.WORK, "curve", broken)
    assert bench.main(["--workload", "curve", "--seed", "1",
                       "--seconds", "0.001", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 3 * bench.MIN_ROUNDS,
                      "failed": 3 * bench.MIN_ROUNDS, "metrics": {}}
