"""Tests of the benchmark harness itself (not of msinoise).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import json
import signal
import sys
import threading
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from msinoise import radiation_pressure, scattering, verify  # noqa: E402
from spans import Tracer, instrumented  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4], which holds b [2, 3], then c [6, 8]
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert tracer.total_s == {"outer": 10.0, "a": 3.0, "b": 1.0, "c": 2.0}
    assert tracer.self_s == {"outer": 5.0, "a": 2.0, "b": 1.0, "c": 2.0}
    assert tracer.calls == {"outer": 1, "a": 1, "b": 1, "c": 1}


def test_repeated_spans_accumulate():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 4.0))
    for _ in range(2):
        with tracer.span("f"):
            pass
    assert tracer.calls == {"f": 2}
    assert tracer.self_s == {"f": 3.0}


def test_span_stack_is_per_thread():
    tracer = Tracer()

    def worker():
        with tracer.span("worker"):
            time.sleep(0.02)

    with tracer.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert tracer.calls == {"main": 1, "worker": 1}
    # the worker span is not a child of the main-thread span
    assert tracer.self_s["main"] == tracer.total_s["main"]
    assert tracer.total_s["main"] >= tracer.total_s["worker"]


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.a defines inner; fakepkg.b imports it by name and registers it."""

    def inner():
        return 1

    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")
    mod_a.inner = inner
    mod_b.inner = inner
    mod_b.REGISTRY = {"x": inner}
    exec("def outer():\n    return inner() + REGISTRY['x']()\n", vars(mod_b))
    for module in (pkg, mod_a, mod_b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return inner, mod_a, mod_b


def test_instrumented_wraps_every_binding_and_restores(fake_package):
    inner, mod_a, mod_b = fake_package
    tracer = Tracer()
    with instrumented(tracer, ["a.inner", "a.gone", "nomodule.f"], "fakepkg") as absent:
        assert mod_a.inner is not inner
        assert mod_b.inner is not inner
        assert mod_b.REGISTRY["x"] is not inner
        assert mod_b.outer() == 2
    assert absent == ["a.gone", "nomodule.f"]
    assert tracer.calls == {"a.inner": 2}
    assert mod_a.inner is inner
    assert mod_b.inner is inner
    assert mod_b.REGISTRY["x"] is inner


def test_instrumented_restores_when_body_raises(fake_package):
    inner, mod_a, mod_b = fake_package
    with pytest.raises(RuntimeError):
        with instrumented(Tracer(), ["a.inner"], "fakepkg"):
            raise RuntimeError("boom")
    assert mod_a.inner is inner
    assert mod_b.REGISTRY["x"] is inner


def test_msinoise_bindings_restored_after_a_traced_run():
    original_dynamics = scattering.mode_dynamics
    original_golden = verify.check_golden
    with instrumented(Tracer(), workloads.TARGETS) as absent:
        assert radiation_pressure.mode_dynamics is not original_dynamics
        assert verify.CHECK_NAMES["golden_determinism"] is not original_golden
    assert absent == []
    assert scattering.mode_dynamics is original_dynamics
    assert radiation_pressure.mode_dynamics is original_dynamics
    assert verify.CHECK_NAMES["golden_determinism"] is original_golden


def test_timings_scale_by_the_mean_calibration_speed():
    ref = run.CALIBRATION_REF_S
    timings = run.Timings()
    timings.add(2.0, [ref, ref])
    timings.add(2.0, [2.0 * ref, 2.0 * ref])
    timings.add(3.0, [ref, 0.5 * ref])  # mean speed 1.5x the reference
    assert timings.raw == [2.0, 2.0, 3.0]
    assert timings.scaled == [2.0, 1.0, 4.5]
    assert timings.median() == 2.0


def test_speed_probe_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        time.sleep(3 * run.PROBE_INTERVAL_S)
    assert len(probe.samples) >= 2
    assert probe.spent > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_outcome_counts():
    assert workloads.outcome_counts([True, False, True, True]) == (4, 1)
    assert workloads.outcome_counts([True] * 3) == (3, 0)


def _verdicts(*passed):
    return [
        verify.InvariantResult(f"check{i}", ok, 0.0 if ok else 2.0, 1.0, "")
        for i, ok in enumerate(passed)
    ]


def test_ensemble_counts_each_invariant_once():
    ensemble = workloads.Ensemble(1, ROOT / "src", ROOT / ".bench_out")
    outcomes, correct, notes = ensemble.check([_verdicts(True, False, True)] * 3)
    assert workloads.outcome_counts(outcomes) == (3, 1)
    assert correct
    assert len(notes) == 1


def test_ensemble_flags_verdicts_that_change_between_repetitions():
    ensemble = workloads.Ensemble(1, ROOT / "src", ROOT / ".bench_out")
    _, correct, _ = ensemble.check([_verdicts(True, True), _verdicts(True, False)])
    assert not correct


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END.items()
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(
        workloads.TARGETS
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
