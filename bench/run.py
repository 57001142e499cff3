"""Benchmark of polydicke's exact and variational routes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from workloads.py as a closed loop: a single client in a
single process issues the next op only when the previous one has returned.
BLAS runs on one thread.  Ops run in whole rounds (see workloads.py) until
the next round would pass the time budget; each op's output is checked after
its timer stops.  Set-up (imports, inputs, warm-up) is timed in this process
and in two fresh interpreters started one after the other, and its median is
reported.

With --trace 1 the same ops run twice: first untraced, for half the budget,
then traced through the wrappers in tracing.py, and the per-layer figures
come from the traced pass.  The spans are saved to
.bench_work/trace-<workload>.npz.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it give every metric with its
unit and sample count, and the environment.  Exits 2 without a result when
the polydicke sources are not next to this directory.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


class Record:
    __slots__ = ("params", "latency", "verdict", "out_bytes")

    def __init__(self, params, latency, verdict, out_bytes):
        self.params = params
        self.latency = latency
        self.verdict = verdict
        self.out_bytes = out_bytes


def run_op(workload, op, tracer=None, op_id=0):
    from workloads import Verdict

    workload.prepare(op)
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is not None:
            tracer.op_id, tracer.active = op_id, True
        t = time.perf_counter()
        try:
            output = workload.execute(op)
        except Exception:
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - t
        if tracer is not None:
            tracer.active = False
    if error is not None:
        verdict = Verdict(failed=True, detail=error)
    else:
        try:
            verdict = workload.check(op, output)
        except Exception:
            verdict = Verdict(failed=True, mismatch=True,
                              detail="check raised: " + traceback.format_exc(limit=3))
    return Record(op.params, latency, verdict, workload.out_bytes(op))


def run_rounds(workload, budget_s):
    """Closed loop over whole rounds; returns the rounds and their records."""
    rounds, records = [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        ops = workload.round()
        rounds.append(ops)
        records += [run_op(workload, op) for op in ops]
        now = time.perf_counter()
        if now - start + (now - r0) > budget_s:
            return rounds, records


def replay_traced(workload, rounds, tracer):
    ops = [op for r in rounds for op in r]
    return [run_op(workload, op, tracer, i) for i, op in enumerate(ops)]


def tail(latencies, preferred):
    """(percentile, value): the workload's fixed tail percentile, or the
    highest ladder percentile that keeps >= 10 samples beyond it."""
    import numpy as np

    n = len(latencies)
    for p in (preferred,) + tuple(q for q in TAIL_LADDER if q < preferred):
        if n * (1.0 - p / 100.0) >= 10.0 or p == TAIL_LADDER[-1]:
            return p, float(np.percentile(latencies, p))


def setup_samples(args, own):
    """This process's set-up time plus that of fresh interpreters."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def openblas_info():
    """Version string and thread count of every OpenBLAS numpy/scipy load."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = os.path.dirname(os.path.dirname(pkg.__file__))
        libs = os.path.join(libs, pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"scipy_openblas_get_config{suffix}")
                    threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                out[pkg.__name__] = {"config": config().decode(),
                                     "threads": threads()}
                break
    return out


def environment(seed):
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas_info(),
            "blas_threads_pinned": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "seed": seed}


def summarize(records):
    n = len(records)
    failed = sum(r.verdict.failed for r in records)
    mismatched = sum(r.verdict.mismatch for r in records)
    known = sum(r.verdict.mismatch and r.verdict.known for r in records)
    return n, failed, mismatched, known


def end_to_end(workload, records, setups, lines):
    n, failed, mismatched, known = summarize(records)
    latencies = [r.latency for r in records]
    busy = sum(latencies)
    pct, tail_s = tail(latencies, workload.tail_percentile)
    beyond = sum(x > tail_s for x in latencies)
    metrics = {
        "ops_per_s": n / busy,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "ops_per_s": f"{n} ops over {busy:.3f} s of op time",
        "op_p50_ms": f"median of {n} ops",
        "op_tail_ms": f"p{pct:g} of {n} ops, {beyond} beyond",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for key, value in metrics.items():
        lines.append(f"  {key:<14} {value:12.4f} {END_TO_END_UNITS[key]:<4}"
                     f" ({notes[key]})")
    lines.append(f"  {'failed_frac':<14} {failed / n:12.4f} ratio"
                 f" ({failed} of {n} ops)")
    lines.append(f"  {'mismatch_frac':<14} {mismatched / n:12.4f} ratio"
                 f" ({mismatched} of {n} ops; {known} are the known baseline"
                 f" defect)")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in metrics.items()}


def per_layer(untraced, traced, tracer, lines):
    import tracing

    n = len(traced)
    values = tracing.layer_metrics(tracer, n)
    _, failed, mismatched, _ = summarize(traced)
    values["cli.out_bytes"] = sum(r.out_bytes for r in traced) / n
    values["check.failed_frac"] = failed / n
    values["check.mismatch_frac"] = mismatched / n
    values["trace.overhead_frac"] = (sum(r.latency for r in traced)
                                     / sum(r.latency for r in untraced) - 1.0)
    lines.append(f"  per-layer figures per op over {n} traced ops")
    metrics = {}
    for key, unit in tracing.PER_LAYER_UNITS.items():
        metrics[key] = {"value": values[key], "unit": unit}
        lines.append(f"  {key:<42} {values[key]:14.6g} {unit}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "polydicke" / "__init__.py").is_file():
        print(f"error: polydicke sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polydicke

    if Path(polydicke.__file__).resolve().parent != (SRC / "polydicke").resolve():
        print(f"error: imported polydicke from {polydicke.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            workload.warm_up()
        own_setup = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return measure(args, workload, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, own_setup):
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    if args.trace == 0:
        rounds, records = run_rounds(workload, args.seconds)
        lines[0] += f": {len(records)} ops in {len(rounds)} rounds"
        metrics = end_to_end(workload, records, setup_samples(args, own_setup),
                             lines)
        every = records
    else:
        import tracing

        rounds, untraced = run_rounds(workload, args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracing.install_all(tracer)
        try:
            traced = replay_traced(workload, rounds, tracer)
        finally:
            tracer.uninstall()
        tracer.save(WORK / f"trace-{args.workload}.npz")
        metrics = per_layer(untraced, traced, tracer, lines)
        every = untraced + traced
    n, failed, mismatched, known = summarize(every)
    for r in every:
        if r.verdict.failed or (r.verdict.mismatch and not r.verdict.known):
            lines.append(f"  problem: {r.params}: {r.verdict.detail.strip()}")
            break
    for r in every:
        if r.verdict.mismatch and r.verdict.known:
            lines.append(f"  known defect: {r.params}: {r.verdict.detail}")
            break
    lines.append("env " + json.dumps(environment(args.seed), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and mismatched == known,
                      "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
