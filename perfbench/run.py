"""Benchmark of the msinoise package: end-to-end timing and per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1   # all workloads, one after another

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with library versions and machine, goes to ``.bench_out/``.  See
README.md in this directory for what each metric means.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("sweep", "cooling", "ensemble")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}
SETUP_SPAWNS = 9
MIN_REPS = 2
CALIBRATION_STEPS = 4000
#: time of CALIBRATION_STEPS calibration steps that timings are scaled to
#: (the reference host in a fast phase); reports are seconds at that speed
CALIBRATION_REF_S = 0.125
PROBE_STEPS = 150
PROBE_INTERVAL_S = 0.125
#: per-call microseconds on P1 in ROADMAP's baseline table
ROADMAP_US = {
    "scattering.fixed_matrices": 17.0,
    "scattering.mode_dynamics": 46.0,
    "radiation_pressure.force_transfer": 99.0,
    "radiation_pressure.rigidity": 209.0,
    "radiation_pressure.noise_spectra": 437.0,
}
ROWS_COUNTED = ("scattering.mode_dynamics", "scattering.fixed_matrices")

_SETUP_SNIPPET = """\
import json, sys
import msinoise
from msinoise.config import parse_config
import {modules}
for raw in json.load(sys.stdin):
    parse_config(raw)
"""


def per_layer_names(targets) -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = []
    for target in targets:
        names += [(f"{target}.calls", "count"), (f"{target}.self_s", "s")]
    names += [(f"{target}.calls_per_row", "calls/row") for target in ROWS_COUNTED]
    names.append(("trace.overhead_s", "s"))
    return names


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


@dataclass(frozen=True)
class _Blocks:
    phases: object
    membrane: object
    mirrors: object


def calibration_seconds(steps: int = CALIBRATION_STEPS) -> float:
    """Wall time of a fixed loop shaped like the package's hot path.

    Each step builds 2x2 complex diagonal blocks into a small frozen
    dataclass, forms a mode matrix, its determinant and closed-form
    inverse, checks the inverse and formats a CSV row of the results.  It
    calls no package code, so only the speed of the machine moves it.  The
    result is scaled to ``CALIBRATION_STEPS`` steps.
    """
    import numpy as np

    q = np.array([[0.9 + 0.1j, -0.3], [0.3, 0.9 - 0.1j]])
    worst, chars = 0.0, 0
    start = time.perf_counter()
    for i in range(steps):
        phase = np.exp(1j * (1.7e6 + 1e-4 * i))
        blocks = _Blocks(
            phases=np.diag([phase, phase * 1.1]),
            membrane=np.diag([np.exp(0.4j), np.exp(-0.4j)]),
            mirrors=np.diag([0.1, 0.99]).astype(complex),
        )
        d = q.conj().T - blocks.mirrors @ blocks.phases @ q.T @ blocks.membrane
        det = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]
        inv = np.array([[d[1, 1], -d[0, 1]], [-d[1, 0], d[0, 0]]]) / det
        worst = max(worst, float(np.abs(inv @ d - np.eye(2)).max()))
        chars += len(",".join(repr(float(v)) for v in (det.real, det.imag, worst, i)))
    return (time.perf_counter() - start) * CALIBRATION_STEPS / steps


class SpeedProbe:
    """Samples the machine's speed while a body runs, without touching it.

    One calibration sample is taken on entry; then SIGALRM runs a short
    calibration every PROBE_INTERVAL_S of wall time.  ``spent`` is the
    time the probes took inside the body, to be subtracted from it.
    """

    def __enter__(self):
        self.samples = [calibration_seconds(PROBE_STEPS)]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _fire(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibration_seconds(PROBE_STEPS))
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class Timings:
    """Raw wall times and the same times at the reference machine speed.

    Each sample comes with calibration times measured around or during
    it, and is scaled by the mean of CALIBRATION_REF_S / calibration.  The
    host this runs on has slow and fast phases (the calibration loop's
    time varies up to 2x); the scaling takes most of that out.
    """

    def __init__(self):
        self.raw = []
        self.scaled = []
        self.calibration = []

    def add(self, seconds: float, calibrations) -> None:
        self.raw.append(seconds)
        self.calibration.append(list(calibrations))
        self.scaled.append(seconds * statistics.fmean(
            CALIBRATION_REF_S / c for c in calibrations
        ))

    def median(self) -> float:
        return statistics.median(self.scaled)

    def as_record(self) -> dict:
        return {"raw_s": self.raw, "scaled_s": self.scaled,
                "calibration_s": self.calibration}


def setup_seconds(modules, configs) -> Timings:
    """Wall seconds of fresh interpreters that import and parse the configs.

    A first spawn, which may compile bytecode, is not counted.  Each spawn
    is scaled by the calibrations just before and after it.
    """
    code = _SETUP_SNIPPET.format(modules=", ".join(modules))
    payload = json.dumps(configs)

    def spawn() -> float:
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], input=payload, text=True,
                       env=child_env(), check=True, cwd=ROOT)
        return time.perf_counter() - start

    spawn()
    timings = Timings()
    before = calibration_seconds()
    for _ in range(SETUP_SPAWNS):
        seconds = spawn()
        after = calibration_seconds()
        timings.add(seconds, (before, after))
        before = after
    return timings


def timed(body, seconds: float, min_reps: int = MIN_REPS):
    """Repeat ``body`` while another repetition fits in ``seconds``."""
    timings, outputs = Timings(), []
    deadline = time.perf_counter() + seconds
    while len(outputs) < min_reps or (
        time.perf_counter() + statistics.median(timings.raw) <= deadline
    ):
        gc.collect()
        with SpeedProbe() as probe:
            start = time.perf_counter()
            outputs.append(body())
            elapsed = time.perf_counter() - start
        timings.add(elapsed - probe.spent, probe.samples)
    return timings, outputs


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE", "default"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from spans import Tracer, instrumented

    out_dir = WORK_DIR / name
    shutil.rmtree(out_dir, ignore_errors=True)
    work = workloads.WORKLOADS[name](seed, SRC, out_dir)

    setup = setup_seconds(work.modules, work.configs)
    warm = work.run()
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "setup": setup.as_record()}
    if not trace:
        timings, outputs = timed(work.run, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        timings, outputs = timed(work.run, seconds / 2.0)
        tracers, absent = [], []

        def traced_body():
            tracer = Tracer()
            with instrumented(tracer, workloads.TARGETS) as missing:
                absent[:] = missing
                output = work.run()
            tracers.append(tracer)
            return output

        traced, traced_outputs = timed(traced_body, seconds / 2.0, min_reps=1)
        outputs += traced_outputs
        record["traced"] = traced.as_record()
        record["absent"] = absent
    outcomes, correct, notes = work.check([warm] + outputs)
    attempted, failed = workloads.outcome_counts(outcomes)
    record.update(timed=timings.as_record(), notes=notes)

    if not trace:
        metrics = {
            "setup_s": metric(setup.median(), "s"),
            "wall_s": metric(timings.median(), "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "pass_frac": metric((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = layer_metrics(work, tracers, outputs[-1], workloads.TARGETS)
        metrics["trace.overhead_s"] = metric(traced.median() - timings.median(), "s")
        # the baseline table is per point on P1, which only sweep matches
        record["baseline"] = baseline_rows(tracers[0]) if name == "sweep" else []
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def layer_metrics(work, tracers, output, targets) -> dict:
    """Calls of one traced repetition, median self time over repetitions."""
    calls = tracers[0].calls
    self_times = [tracer.self_s for tracer in tracers]
    metrics = {}
    for target in targets:
        metrics[f"{target}.calls"] = metric(calls.get(target, 0), "count")
        metrics[f"{target}.self_s"] = metric(
            statistics.median(times.get(target, 0.0) for times in self_times), "s"
        )
    rows = work.rows(output)
    for target in ROWS_COUNTED:
        per_row = calls.get(target, 0) / rows if rows else 0.0
        metrics[f"{target}.calls_per_row"] = metric(per_row, "calls/row")
    return metrics


def baseline_rows(tracer) -> list[dict]:
    """Traced per-call microseconds beside ROADMAP's baseline table."""
    calls, total_s, self_s = tracer.calls, tracer.total_s, tracer.self_s
    rows = []
    for target, roadmap_us in ROADMAP_US.items():
        n = calls.get(target, 0)
        if not n:
            continue
        incl_us = 1e6 * total_s[target] / n
        rows.append({
            "function": target,
            "calls": n,
            "incl_us": incl_us,
            "self_us": 1e6 * self_s[target] / n,
            "roadmap_us": roadmap_us,
            "ratio": incl_us / roadmap_us,
        })
    return rows


def print_report(result: dict) -> None:
    record = result["record"]
    raw = record["timed"]["raw_s"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  reps {len(raw)}  "
          f"raw wall median {statistics.median(raw):.4g} s  "
          f"calibrations {sum(map(len, record['timed']['calibration_s']))}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<52} {entry['value']:.6g} {entry['unit']}")
    print(f"  checked {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for note in record["notes"]:
        print(f"  failed: {note}")
    for target in record.get("absent", []):
        print(f"  absent: {target}")
    if record.get("baseline"):
        print("  per call (traced, incl. child-span overhead) vs ROADMAP baseline:")
        for row in record["baseline"]:
            flag = "" if 0.8 <= row["ratio"] <= 1.25 else "  <- differs"
            print(f"    {row['function']:<36} {row['incl_us']:8.1f} us "
                  f"(self {row['self_us']:7.1f})  roadmap {row['roadmap_us']:5.0f} us"
                  f"  x{row['ratio']:.2f}{flag}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def run_all_workloads(args) -> int:
    """Each workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "msinoise" / "__init__.py").is_file():
        print(f"error: no msinoise sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all_workloads(args)

    # pinned before numpy loads OpenBLAS; the core type stays at its default
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(SRC))
    import msinoise

    if Path(msinoise.__file__).resolve().parent != SRC / "msinoise":
        print(f"error: msinoise imported from {msinoise.__file__}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["record"]["provenance"] = provenance(args.seed)
    print_report(result)
    record_path = WORK_DIR / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    record_path.write_text(json.dumps(
        {k: result[k] for k in ("correct", "attempted", "failed", "metrics", "record")},
        indent=1, sort_keys=True,
    ) + "\n")
    shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
