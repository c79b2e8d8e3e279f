"""Run one nclp benchmark workload and print its metrics.

    python3 bench/run.py --workload calculus --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: nclp is imported from ``src/``
next to this directory, never from an installed copy.  The workload runs
single-threaded (OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = 1, NCLP_THREADS
unset).  Whole passes over the workload's cases repeat until ``--seconds``
are used; each pass is timed and the median is reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Before it come the environment, any failed case by name, and every
metric with its unit.  The full record (environment, metrics, per-case
checksums and failures, and with tracing the spans) is written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload's inputs and exit (timed by the parent run)")
    return ap.parse_args(argv)


def pin_threads() -> None:
    """Single-threaded BLAS and no nclp fan-out; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("NCLP_THREADS", None)


def import_layers():
    """Import nclp from this checkout's src/ and the benchmark modules."""
    if not (SRC / "nclp" / "__init__.py").is_file():
        raise SystemExit(f"error: nclp sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import harness
    import workloads

    return harness, workloads


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("NCLP_THREADS",)},
    }


def time_setup(args, harness) -> float:
    """Median time, scaled to reference speed, of fresh processes that
    start the interpreter, import nclp and build every input of the
    workload, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        cal = harness.calibration_s()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120)
        seconds = time.perf_counter() - t0
        times.append(harness.scaled(seconds, cal, harness.calibration_s()))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    harness, workloads = import_layers()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cases = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0

    setup_s = time_setup(args, harness)
    tag = f"{args.workload}-seed{args.seed}"
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        plain = harness.run_timed(cases, args.seconds / 2, False, tag)
        traced = harness.run_timed(cases, args.seconds / 2, True, tag)
        metrics = harness.traced_metrics(plain, traced)
        units = {k: harness.layer_unit(k) for k in metrics}
        passes = plain + traced
    else:
        passes = harness.run_timed(cases, args.seconds, False, tag)
        metrics = harness.end_to_end_metrics(passes, setup_s)
        units = harness.END_TO_END_UNITS
        traced = []

    outcomes = [o for p in passes for o in p.outcomes]
    failures = {o.name: o.error for o in outcomes if o.error}
    misses = sorted(n for n, e in failures.items() if e[0] == "CheckMiss")
    for name, (kind, msg) in sorted(failures.items()):
        print(f"failed {name}: {kind}: {msg}")
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}  ({len(passes)} passes)")
    print(f"unscaled wall_s = {statistics.median(p.wall_s for p in passes):.6g} s")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{tag}-trace{args.trace}"
    record = {
        "env": env,
        "workload": args.workload,
        "seconds": args.seconds,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_scaled_s": [p.scaled_s for p in passes],
        "pass_calibration_s": [p.cal_median_s for p in passes],
        "case_median_s": {o.name: statistics.median(q.outcomes[i].seconds for q in passes)
                          for i, o in enumerate(passes[0].outcomes)},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "checksums": {o.name: o.checksum for o in passes[0].outcomes},
        "failures": {k: list(v) for k, v in failures.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if traced:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for p in traced:
                for i, s in enumerate(p.ctx.spans):
                    fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent, "run": s.run}) + "\n")

    result = {
        "correct": not misses,
        "attempted": len(outcomes),
        "failed": harness.failed_count(outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
