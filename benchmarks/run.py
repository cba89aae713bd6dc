"""Layered, seeded benchmark for sidonlab.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload count --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Closed loop: one client in one process, no threads, BLAS pools pinned to
one thread.  A run repeats passes of its workload's job list until
`--seconds` have elapsed; every job is checked after the pass timer stops
(see workloads.py).  With `--trace 0` the run reports the end-to-end
metrics.  With `--trace 1` it runs a fixed number of passes (independent
of `--seconds`, so the counts repeat exactly), each once untraced and once
traced on the same inputs, and reports per-layer metrics (see tracing.py
and layers.py).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the full result
document, with the environment record, goes to benchmarks/results/.

Exit status: 0 when every job passed its check, 1 when any failed, 2 when
sidonlab cannot be loaded from this checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / ".work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
CALIBRATION_REPEATS = 6
# setup_s is reported in seconds of a host on which one calibration loop
# takes this long, so that host speed drift between runs cancels out
CALIBRATION_REFERENCE_S = 0.010
WORKLOAD_NAMES = ("count", "report", "verify")
# the end-to-end metrics BENCHMARK.json gates; wall_s and failed_frac are
# printed and written to the result document only (see METRICS.md)
END_TO_END = ("wall_rel", "peak_rss_mb", "setup_s")


class BootstrapError(RuntimeError):
    pass


def bootstrap():
    """Pin BLAS pools to one thread and import sidonlab from ROOT/src."""
    for var in BLAS_ENV:
        os.environ[var] = "1"
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import sidonlab
    except ImportError as exc:
        raise BootstrapError(f"cannot import sidonlab from {src}: {exc}") from exc
    origin = Path(sidonlab.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BootstrapError(f"sidonlab was loaded from {origin}, not from {src}")
    return sidonlab


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    acc = 1
    table: dict[int, int] = {}
    squares = []
    for i in range(12000):
        acc = (acc * 1103515245 + i) % 2147483647
        table[acc & 65535] = acc
        squares.append(acc * acc)
    squares.sort()
    big = 7 ** 30000
    for _ in range(4):
        big = big * 3 ** 3000 + squares[-1]
    return time.perf_counter() - t0


def calibrate() -> float:
    """Mean seconds of a fixed pure-Python loop (never calls sidonlab).

    Dividing a pass time by it divides out host speed drift.  The loop
    mixes what the library's own code does: small-integer arithmetic,
    dictionary and list updates over a working set of about a megabyte, a
    sort and big-integer products.  One call runs it CALIBRATION_REPEATS
    times; a timed pass calls it before and after each job."""
    return statistics.fmean(_calibration_loop() for _ in range(CALIBRATION_REPEATS))


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment(seed: int, passes: int, calib: list[float]) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "seed": seed,
        "passes": passes,
        "calibration_s_median": statistics.median(calib) if calib else None,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from interpreter start to ready-to-time in a fresh
    interpreter: import sidonlab, generate pass-0 inputs, write set files."""
    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed


class Runner:
    """Runs passes of one workload and checks every job."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.oracle_per_pass: list[float] = []
        # untraced time of jobs whose oracle does the same count, and the
        # oracle's time on the same inputs
        self.fast_s: list[float] = []
        self.oracle_s: list[float] = []
        self.stdout_bytes = 0
        self.calibrations: list[float] = []

    def run_pass(self, i: int, traced: bool = False,
                 calibrated: bool = False) -> tuple[float, float]:
        """One pass over the job list for pass index i.

        Returns the pass time (the sum of the job times) and, when
        `calibrated`, the pass time in calibration units: each job's time
        divided by the mean of the `calibrate()` runs just before and just
        after it.  Inputs are generated before, and checks run after, the
        timed jobs."""
        jobs = self.workload.jobs(i)
        tracer = self.tracer if traced else None
        outcomes = []
        gc.collect()
        cals = [calibrate()] if calibrated else []
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.recording = True
                tracer.job = f"{i}:{j}"
            t0 = time.perf_counter()
            try:
                result, error = job.run(), None
            except Exception as exc:
                result, error = None, repr(exc)
            finally:
                secs = time.perf_counter() - t0
                if tracer is not None:
                    tracer.recording = False
                    tracer.job = None
            outcomes.append((result, error, secs))
            if calibrated:
                cals.append(calibrate())
        wall = sum(secs for _, _, secs in outcomes)
        rel = sum(secs / ((cals[j] + cals[j + 1]) / 2)
                  for j, (_, _, secs) in enumerate(outcomes)) if calibrated else 0.0
        self.calibrations += cals
        self._check(i, jobs, outcomes, traced)
        return wall, rel

    def _check(self, i, jobs, outcomes, traced) -> None:
        import workloads

        oracle = 0.0
        for job, (result, error, secs) in zip(jobs, outcomes):
            self.attempted += 1
            if error is not None:
                check = workloads.Check(False, f"raised {error}")
            else:
                try:
                    check = job.check(result)
                except Exception as exc:
                    check = workloads.Check(False, f"check raised {exc!r}")
            if not check.ok:
                self.failures.append(f"pass {i} {job.name}: {check.detail}")
            oracle += check.oracle_s
            if job.same_as_oracle and check.has_oracle and not traced:
                self.fast_s.append(secs)
                self.oracle_s.append(check.oracle_s)
            if traced and isinstance(result, workloads.CliResult):
                self.stdout_bytes += len(result.stdout.encode())
        self.oracle_per_pass.append(oracle)


def run_timed(name: str, seed: int, seconds: float, reference=None) -> dict:
    """The end-to-end run: passes until `seconds` have elapsed, with a
    set-up probe before every other pass (at least SETUP_PROBES in all), so
    the probes sample the same stretch of host time as the passes and the
    run's calibrations, which scale them to `setup_s`."""
    setup_times = []
    workload = make_workload(name, reference)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(seed, workdir)
        runner = Runner(workload)
        walls, rels = [], []
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            if i % 2 == 0:
                setup_times.append(probe_setup(name, seed))
            wall, rel = runner.run_pass(i, calibrated=True)
            walls.append(wall)
            rels.append(rel)
            i += 1
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(name, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scale = CALIBRATION_REFERENCE_S / statistics.median(runner.calibrations)
    return {
        "workload": name,
        "trace": 0,
        "env": environment(seed, i, runner.calibrations),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "samples": {"setup_s": setup_times, "wall_s": walls, "wall_rel": rels},
        "metrics": {
            "setup_s": dict(summary([t * scale for t in setup_times]), unit="s"),
            "setup_raw_s": dict(summary(setup_times), unit="s"),
            "wall_s": dict(summary(walls), unit="s"),
            "wall_rel": dict(summary(rels), unit="ratio"),
            "peak_rss_mb": {"median": peak, "q1": peak, "q3": peak, "n": 1, "unit": "MB"},
            "failed_frac": {"median": len(runner.failures) / runner.attempted,
                            "q1": None, "q3": None, "n": runner.attempted,
                            "unit": "ratio"},
        },
    }


def make_workload(name: str, reference=None):
    import workloads

    if name == "report":
        return workloads.ReportWorkload(reference)
    return workloads.WORKLOADS[name]()


def run_traced(name: str, seed: int, passes: int | None = None,
               reference=None) -> dict:
    """The traced run: pass i untraced, then pass i traced, for a fixed
    number of passes; per-layer metrics come from the traced passes."""
    import layers
    import tracing
    import workloads

    passes = passes or workloads.TRACED_PASSES[name]
    workload = make_workload(name, reference)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    try:
        workload.setup(seed, workdir)
        runner = Runner(workload, tracer)
        plain, traced = [], []
        with tracer:
            for i in range(passes):
                plain.append(runner.run_pass(i)[0])
                traced.append(runner.run_pass(i, traced=True)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, absent, zeroed = layers.per_layer(tracer, runner, passes)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    return {
        "workload": name,
        "trace": 1,
        "env": environment(seed, passes, []),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "absent": absent,
        "absent_metrics": zeroed,
        "wall_s": {"untraced": summary(plain), "traced": summary(traced)},
        "counts": dict(tracer.counts),
        "metrics": metrics,
        "spans": tracer.spans,
    }


def write_document(doc: dict, seed: int) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"BENCH_{doc['workload']}_seed{seed}_trace{doc['trace']}.json"
    spans = doc.pop("spans", None)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(path.with_suffix(".spans.jsonl"), "w") as fh:
            for s in spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job]) + "\n")
    return path


def print_timed(doc: dict) -> None:
    m = doc["metrics"]
    print(f"# workload={doc['workload']} seed={doc['env']['seed']} "
          f"passes={doc['env']['passes']} jobs={doc['attempted']}")
    for key in ("setup_s", "setup_raw_s", "wall_s", "wall_rel", "peak_rss_mb"):
        v = m[key]
        print(f"{key:12s} {v['median']:.6g} {v['unit']}  "
              f"(q1 {v['q1']:.6g}, q3 {v['q3']:.6g}, n={v['n']})")
    print(f"{'failed_frac':12s} {m['failed_frac']['median']:.6g} ratio  "
          f"({doc['failed']}/{doc['attempted']} jobs)")
    for line in doc["failures"][:20]:
        print(f"FAILED {line}")


def print_traced(doc: dict) -> None:
    print(f"# workload={doc['workload']} seed={doc['env']['seed']} traced "
          f"passes={doc['env']['passes']} (per-pass values)")
    for key, (value, unit) in doc["metrics"].items():
        note = "  (layer absent)" if key in doc["absent_metrics"] else ""
        print(f"{key:46s} {value:.6g} {unit}{note}")
    if doc["absent"]:
        print(f"# absent layers: {', '.join(doc['absent'])}")
    for line in doc["failures"][:20]:
        print(f"FAILED {line}")


def result_line(doc: dict) -> str:
    if doc["trace"]:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in doc["metrics"].items()}
    else:
        metrics = {k: {"value": doc["metrics"][k]["median"],
                       "unit": doc["metrics"][k]["unit"]} for k in END_TO_END}
    return json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process (peak RSS is per process), then one
    table of the end-to-end metrics with their sample counts."""
    rows = []
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 2 or not proc.stdout.strip():
            rows.append(f"{name:8s} FAILED (exit {proc.returncode}) "
                        f"{proc.stderr.strip()[-300:]}")
            code = 1
            continue
        code = max(code, proc.returncode)
        doc = json.loads((RESULTS / f"BENCH_{name}_seed{seed}_trace0.json").read_text())
        m = doc["metrics"]
        rows.append(
            f"{name:8s} {m['setup_s']['median']:9.4f} {m['setup_raw_s']['median']:11.4f} "
            f"{m['wall_s']['median']:9.4f} "
            f"{m['wall_rel']['median']:9.3f} {m['peak_rss_mb']['median']:11.2f} "
            f"{m['failed_frac']['median']:11.4f}  setup n={m['setup_s']['n']}, "
            f"passes n={m['wall_s']['n']}, jobs n={doc['attempted']}")
    print(f"{'workload':8s} {'setup_s':>9s} {'setup_raw_s':>11s} {'wall_s':>9s} {'wall_rel':>9s} "
          f"{'peak_rss_mb':>11s} {'failed_frac':>11s}  samples")
    print("\n".join(rows))
    print("# units: setup_s s (scaled to a 10 ms calibration loop), setup_raw_s s, "
          "wall_s s, wall_rel ratio, peak_rss_mb MB, failed_frac ratio; "
          "values are medians")
    return code


def main(argv=None, reference=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except BootstrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.trace:
        doc = run_traced(args.workload, args.seed, reference=reference)
    else:
        doc = run_timed(args.workload, args.seed, args.seconds, reference)
    path = write_document(doc, args.seed)
    (print_traced if args.trace else print_timed)(doc)
    print(f"# result document: {path.relative_to(ROOT)}")
    print(result_line(doc))
    return 0 if doc["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
