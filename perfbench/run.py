"""polyflow benchmark: one workload for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Each run of the workload is a fresh process (``worker.py``) with one BLAS
thread; runs repeat until ``--seconds`` is spent.  Every output is checked
against the closed forms and reference values in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced runs, alternated with untraced runs to give the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  Everything, with a host record and every sample,
is also written to ``.perfbench_out/<workload>/result-trace<0|1>.json``.
See ``README.md`` for the workloads and what each metric should show.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # the whole invocation ends well inside 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it
# Median time of the speed gauge (worker.calibrate) in a quiet period of the
# host the benchmark was tuned on: an Intel Xeon with 2 cores, numpy 2.4,
# Python 3.11.  Reported times are at that speed.
CAL_REF_S = 0.063

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "iterations": "count",
    "energy_ratio": "ratio",
}

# Traced function -> statistics reported as <function>.<stat>.
FUNCTION_STATS = {
    "domain_grid.deriv": ("calls", "self_s"),
    "domain_grid.orthonormal_frame": ("calls", "self_s"),
    "domain_grid.induced_metric": ("calls", "self_s"),
    "domain_grid.integrate": ("calls", "self_s"),
    "space_form.ambient_form": ("calls", "self_s"),
    "space_form.project_tangent": ("calls", "self_s"),
    "space_form.inner": ("calls", "self_s"),
    "space_form.exp_map": ("self_s",),
    "space_form.project_point": ("self_s",),
    "space_form.curvature_op": ("self_s",),
    "pullback.tension": ("calls", "self_s"),
    "pullback.nabla_bar": ("calls", "self_s"),
    "pullback.differential": ("calls", "self_s"),
    "pullback.rough_laplacian": ("calls", "self_s"),
    "pullback.tritension_general": ("calls", "total_s"),
    "pullback.bitension": ("calls", "total_s"),
    "energy.energy_k": ("calls", "total_s"),
    "energy.energy_report": ("calls", "total_s"),
    "verify.pointwise_identity_audit": ("calls", "self_s", "total_s"),
    "flow.run_flow": ("self_s",),
    "flow.flow_step": ("calls", "total_s"),
    "flow.stability_cap": ("calls", "self_s"),
    "cli.run": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}
DERIVED_UNITS = {
    "domain_grid.deriv.elements": "count",
    "flow.iter_ms": "ms",
    "flow.deriv_calls_per_iter": "count",
    "flow.tension_calls_per_iter": "count",
    "flow.accept_ratio": "ratio",
    "flow.cap_bound_share": "ratio",
    "cli.output_bytes": "bytes",
    "tracing.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def gauged(sample: dict, key: str) -> float:
    """``sample[key]``, a time from one worker, at the reference host speed.

    The speed of a shared host drifts by up to ~1.8x in regimes of seconds
    to minutes, with CPU time equal to wall time: other tenants of the
    hardware, not the scheduler.  Each worker times a fixed numpy kernel
    between its timed sections (``cal_s``); scaling its times by CAL_REF_S
    over the mean of those gauge times cancels most of the drift.
    """
    return sample[key] * CAL_REF_S / statistics.fmean(sample["cal_s"])


def host_record(rep: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": rep.get("numpy"),
        "polyflow": rep.get("polyflow"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "platform": platform.platform(),
    }


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 refs: dict = None):
        """``refs=None`` skips the comparisons with reference values."""
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.refs = trace, refs
        self.dir = OUT / workload
        self.t0 = time.perf_counter()
        self.reps = []
        self.setups = []  # set-up and gauge times from --setup-only workers

    def worker(self, out, *extra):
        """Run ``worker.py`` to completion; it is killed at the deadline."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), *extra]
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, DEADLINE_S - self.elapsed()))

    def setup_sample(self):
        """One more cold set-up time, from a worker that stops after it."""
        try:
            proc = self.worker(self.dir, "--setup-only")
        except subprocess.TimeoutExpired:
            return
        if proc.returncode == 0:
            self.setups.append(json.loads(proc.stdout))

    def run_rep(self, traced: bool) -> dict:
        """One fresh-process run of the workload, outputs checked."""
        outputs = self.dir / "outputs"
        shutil.rmtree(outputs, ignore_errors=True)
        outputs.mkdir(parents=True)
        cfgs = workloads.configs(self.workload, self.seed, str(outputs) + "/")
        extra = (["--trace", "--spans", str(self.dir / f"spans-{len(self.reps)}.csv")]
                 if traced else [])
        rep = {"traced": traced, "problems": []}
        start = time.perf_counter()
        try:
            proc = self.worker(outputs, *extra)
            if proc.returncode != 0:
                rep["problems"].append(
                    f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            else:
                rep.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        except subprocess.TimeoutExpired:
            rep["problems"].append("worker timed out")
        except ValueError:
            rep["problems"].append(f"unreadable worker output: {proc.stdout[-400:]}")
        rep["wall_s"] = time.perf_counter() - start
        rep["obs"] = {}
        codes = {op["label"]: op["exit_code"] for op in rep.get("ops", [])}
        rep["ops_failed"] = 0
        for label, cfg in cfgs:
            if label not in codes:
                rep["ops_failed"] += 1
                continue
            obs = workloads.observe(self.workload, label, cfg, codes[label])
            ref = (None if self.refs is None else
                   workloads.reference_for(self.refs, self.workload, self.seed, label))
            bad = workloads.check(self.workload, label, cfg, obs, ref)
            rep["obs"][label] = obs
            rep["problems"] += [f"{label}: {b}" for b in bad]
            rep["ops_failed"] += bool(bad)
        rep["ops"] = len(cfgs)
        self.reps.append(rep)
        return rep

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def measure(self):
        """Repeat runs until the next one would end after ``seconds``.

        Traced invocations alternate traced and untraced runs, starting
        traced, with at least two traced runs (whose counts must agree) and
        one untraced run (for the tracing overhead).  Before each run a
        worker that only sets up adds a set-up sample, which steadies the
        median of the short and noisy set-up time.
        """
        longest = 0.0  # the longest set-up sample plus run so far
        while True:
            if self.trace:
                n_traced = sum(r["traced"] for r in self.reps)
                traced = n_traced <= len(self.reps) - n_traced
                done = n_traced >= 2 and len(self.reps) > n_traced
            else:
                traced, done = False, bool(self.reps)
            if done and self.elapsed() + longest > self.seconds:
                return
            if self.reps and self.elapsed() + longest > DEADLINE_S - 5.0:
                return
            start = self.elapsed()
            self.setup_sample()
            self.run_rep(traced)
            longest = max(longest, self.elapsed() - start)

    def timed(self, traced: bool) -> list:
        return [r for r in self.reps if r["traced"] == traced and "run_s" in r]

    def end_to_end(self) -> dict:
        reps = self.timed(False)
        labels = [label for label, _ in workloads.configs(self.workload, 0, "")]
        flow = self.workload != "audit_2d"
        # Output-derived values need every output; failed runs give none.
        whole = [r for r in reps if not r["problems"]]

        def per_rep(fn, pool=whole):
            return statistics.median(fn(r) for r in pool) if pool else 0.0

        if flow:
            iterations = per_rep(lambda r: r["obs"][labels[0]]["iterations"])
            ratio = per_rep(lambda r: r["obs"][labels[0]]["energy_ratio"])
        else:
            # Nothing flows: the work count is the audit checks evaluated,
            # and the accuracy ratio is the audited E3 over its reference.
            iterations = per_rep(lambda r: sum(r["obs"][l]["checks"] for l in labels))
            ratio = per_rep(lambda r: statistics.fmean(
                r["obs"][l]["E3"] / workloads.reference_for(
                    self.refs, self.workload, self.seed, l)["E3"] for l in labels))
        return {
            "run_s": per_rep(lambda r: gauged(r, "run_s"), reps),
            "setup_s": statistics.median(
                gauged(s, "setup_s")
                for s in self.setups + [r for r in self.reps if "setup_s" in r]),
            "peak_rss_mb": per_rep(lambda r: r["peak_rss_mb"], reps),
            "iterations": iterations,
            "energy_ratio": ratio,
        }

    def per_layer(self) -> dict:
        traced = self.timed(True)
        first = traced[0]
        out = {}
        for fn, stats in FUNCTION_STATS.items():
            for stat in stats:
                values = [r["functions"].get(fn, {}).get(stat, 0) for r in traced]
                out[f"{fn}.{stat}"] = (values[0] if stat == "calls"
                                       else statistics.median(values))
        out["domain_grid.deriv.elements"] = first["counters"].get("deriv.elements", 0)
        funcs, obs = first["functions"], next(iter(first["obs"].values()))
        iters = obs.get("iterations", 0)
        run_flow_s = statistics.median(
            r["functions"]["flow.run_flow"]["total_s"] for r in traced)
        out["flow.iter_ms"] = 1e3 * run_flow_s / iters if iters else 0.0
        for name, fn in (("deriv", "domain_grid.deriv"), ("tension", "pullback.tension")):
            within = funcs[fn]["calls_within"]
            out[f"flow.{name}_calls_per_iter"] = within / iters if iters else 0.0
        trials = obs.get("trials", 0)
        out["flow.accept_ratio"] = obs["accepted"] / trials if trials else 0.0
        steps = funcs["flow.flow_step"]["calls"]
        out["flow.cap_bound_share"] = (
            first["counters"].get("cap_bound", 0) / steps if steps else 0.0)
        out["cli.output_bytes"] = sum(o["output_bytes"] for o in first["obs"].values())
        out["tracing.overhead_s"] = (
            statistics.median(gauged(r, "run_s") for r in traced)
            - statistics.median(gauged(r, "run_s") for r in self.timed(False)))
        return out

    def counts_repeat(self) -> bool:
        """Exact counts must agree between traced runs of the same inputs."""
        def counts(r):
            return ({fn: f["calls"] for fn, f in r["functions"].items()},
                    r["counters"])
        traced = self.timed(True)
        return all(counts(r) == counts(traced[0]) for r in traced[1:])


def tail(samples: list):
    """Highest percentile with TAIL_BEYOND samples beyond it, as
    ``(percentile, value)``; None unless it lies above the median."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND
    if 2 * k <= len(xs):
        return None
    return math.floor(100.0 * k / len(xs)), xs[k - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "polyflow" / "__init__.py").is_file():
        print(f"no polyflow sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  workloads.load_reference())
    bench.dir.mkdir(parents=True, exist_ok=True)
    for old in bench.dir.glob("spans-*.csv"):
        old.unlink()
    bench.measure()
    reps = bench.reps
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["ops_failed"] for r in reps)
    if not bench.timed(False) or (args.trace and len(bench.timed(True)) < 2):
        print("no complete run: " + "; ".join(reps[-1]["problems"]), file=sys.stderr)
        return 1

    correct = failed == 0
    if args.trace:
        values, units = bench.per_layer(), dict(DERIVED_UNITS)
        units.update({f"{fn}.{s}": STAT_UNITS[s]
                      for fn, stats in FUNCTION_STATS.items() for s in stats})
        if not bench.counts_repeat():
            print("call counts differ between traced runs", file=sys.stderr)
            correct = False
    else:
        values, units = bench.end_to_end(), END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}

    host = host_record(bench.timed(False)[0])
    run_samples = [gauged(r, "run_s") for r in bench.timed(False)]
    raw_samples = [r["run_s"] for r in bench.timed(False)]
    p = tail(run_samples)
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} variant "
          f"{workloads.variant(args.seed)} trace {args.trace}")
    print(f"run_s median {statistics.median(run_samples):.4f} s over n="
          f"{len(run_samples)} untraced runs; tail percentile: "
          + (f"p{p[0]} {p[1]:.4f} s" if p else
             f"none above the median (needs more than {2 * TAIL_BEYOND} runs)"))
    print(f"run_s is at the reference host speed; the raw wall-time median is "
          f"{statistics.median(raw_samples):.4f} s")
    print(f"ops_failed {failed}/{attempted} = {failed / attempted:.4f}")
    for r in reps:
        for problem in r["problems"]:
            print(f"FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:<24.10g} {m['unit']}")
    (bench.dir / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"host": host, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "correct": correct,
         "attempted": attempted, "failed": failed, "metrics": metrics,
         "setup_only": bench.setups, "cal_ref_s": CAL_REF_S,
         "runs": [{k: v for k, v in r.items() if k != "functions"} for r in reps]},
        indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
