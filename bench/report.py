"""Run every workload over several seeds and print each end-to-end metric.

    python3 bench/report.py --seeds 1 2 3 --seconds 40

For each workload and metric it prints the median, the quartiles and the
quartile spread (q3 - q1) / median over the seeds, next to the bound that
BENCHMARK.json fixes.  Spreads of end-to-end metrics other than setup_s
must stay within their bound for the benchmark to tell a regression from
noise.  Each run is ``bench/run.py`` in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    for line in proc.stdout.splitlines():
        if line.startswith("failed "):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        results = [run_once(workload, s, args.seconds) for s in args.seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, "
              f"failed {failed} of {attempted} attempted")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            note = f"  bound {bounds[name]:g} ({spread / bounds[name]:.0%} used)"
            print(f"  {name:40s} {med:12.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}{note}")
            print(f"    values: {' '.join(f'{v:.6g}' for v in vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
