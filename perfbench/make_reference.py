"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every input variant of each workload once, untraced, refuses to record
a variant whose outputs fail the checks that need no reference (exit code,
flow status, audit verdicts, monotone and finite energies, closed-form
areas), and writes ``reference.json``.  The committed file was recorded at
the commit that added the benchmark; re-recording it after a numerical
change would hide that change, so do it only when the workloads change.
"""

import json
import sys

import run
import workloads


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    path = workloads.REFERENCE_PATH
    refs = json.loads(path.read_text()) if path.exists() else {}
    for workload in names:
        refs[workload] = {}
        for j in range(workloads.VARIANTS):
            rep = run.Bench(workload, j, 0.0, False).run_rep(traced=False)
            if rep["problems"]:
                print(f"{workload} variant {j}: {rep['problems']}", file=sys.stderr)
                return 1
            refs[workload][str(j)] = {
                label: workloads.reference_entry(workload, obs)
                for label, obs in rep["obs"].items()}
            print(workload, j, refs[workload][str(j)], flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
