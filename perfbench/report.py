"""Run the benchmark on every workload and print every metric with its unit.

    python3 perfbench/report.py [--workload NAME ...] [--runs 1] [--seconds 35]

Each workload runs ``--runs`` times in timed mode (seeds 12345, 12346, ...)
and once in traced mode, each in its own process.  With two or more runs
the table gives, per end-to-end metric, the median and the spread: the
distance between the first and third quartile of the runs, as a share of
their median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)

    ok = True
    for name in args.workload or list(wl.WORKLOADS):
        results = [run(name, wl.DEFAULT_SEED + i, args.seconds, 0) for i in range(args.runs)]
        results.append(run(name, wl.DEFAULT_SEED, args.seconds, 1))
        rows = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ok &= all(r["correct"] for r in results)
        print(f"== {name}: {args.runs} timed run(s) + 1 traced, fail_frac {failed / rows} ({failed} of {rows} rows)")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results[:-1]]
            unit = results[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            spread = ""
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"  spread {(q3 - q1) / med:.4f}  values {[round(v, 6) for v in values]}"
            print(f"  {metric:<34} {med:>16.6g} {unit}{spread}")
        for metric, m in results[-1]["metrics"].items():
            print(f"  {metric:<34} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
