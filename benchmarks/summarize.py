#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/summarize.py --workload noisy_suite_d10 --seeds 1-10 --trace 0

For every metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the quartile spread as a share of the median, the figure the
bounds in BENCHMARK.json are judged against.  With ``--out`` the summary is
also written as JSON; several workloads can share one file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    p.add_argument("--out", default=None, help="JSON file to add this summary to")
    args = p.parse_args(argv)

    values, runs = {}, []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True,
            text=True,
            cwd=str(HERE.parent),
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
        print(f"{name}: median {med:.6g} quartiles [{q1:.6g}, {q3:.6g}] spread {spread:.4f}")

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc[f"{args.workload}/trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": args.seconds, "summary": summary, "runs": runs,
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
