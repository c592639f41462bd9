"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads W ...] [--seeds 10] [--first-seed 0]

By default it runs the workloads ``BENCHMARK.json`` lists, for its
``run_seconds``.

Runs ``run.py`` once per (seed, workload), interleaving the workloads so
that slow phases of the host fall on all of them, each in its own process.
For every end-to-end metric it prints the median of the values and their
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
a third of the bound ``BENCHMARK.json`` fixes.  Results are also written to
``.perfbench_out/spread.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                    default=[w["name"] for w in manifest["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    args = ap.parse_args()

    values = {w: {} for w in args.workloads}
    failures = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in args.workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            result = json.loads(last[0]) if proc.returncode == 0 else {}
            if not result.get("correct"):
                failures.append((w, seed, proc.returncode, proc.stderr[-400:]))
            for name, m in result.get("metrics", {}).items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result.get("metrics", {}).items()),
                flush=True)

    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    table = {}
    print(f"\n{'workload':22s} {'metric':14s} {'median':>12s} {'spread':>8s} "
          f"{'bound/3':>8s}")
    for w, metrics in values.items():
        for name, xs in sorted(metrics.items()):
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3.0 else "  WIDE"
            table.setdefault(w, {})[name] = {"median": med, "spread": spread,
                                             "values": xs}
            print(f"{w:22s} {name:14s} {med:12.6g} {spread:8.4f} "
                  f"{bounds[name] / 3.0:8.4f}{flag}")
    for f in failures:
        print(f"FAILED: {f}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(
        {"seeds": [args.first_seed, args.first_seed + args.seeds],
         "seconds": args.seconds, "metrics": table, "failures": failures},
        indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
