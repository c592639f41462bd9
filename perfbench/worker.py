"""One run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
                                [--trace [--spans FILE] | --setup-only]

Times the cold set-up, then runs the workload's configs through the user's
entry point ``polyflow.cli.run(parse_config(cfg))`` and prints one JSON
object on stdout: set-up and run times, exit codes, peak resident set, the
times of the host speed gauge (``calibrate``) taken around the work and,
when traced, per-function aggregates.  ``run.py`` starts it with ``src``
on ``PYTHONPATH`` and checks the outputs it leaves in ``DIR``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (pure Python: no numpy yet)

LAYERS = ("space_form", "domain_grid", "pullback", "energy", "verify", "flow", "cli")
# Repetitions in the speed gauge: about 25 ms of each kind of work.
CAL_SMALL_REPS = 1000
CAL_LARGE_REPS = 12
SETUP_ONLY_CALS = 2


def _setup(cfg_dict):
    """Cold set-up as a user pays it: import, parse, grid, map, frame."""
    import polyflow  # noqa: F401
    from polyflow.cli import parse_config
    from polyflow.domain_grid import (build_grid, identity_metric,
                                      induced_metric, orthonormal_frame)
    from polyflow.examples import builtin_map

    cfg = parse_config(cfg_dict)
    grid = build_grid(cfg.grid)
    phi = builtin_map(cfg.map_name, cfg.map_params, grid, cfg.target)
    policy = cfg.flow.metric_policy.value if cfg.flow else None
    if cfg_dict["action"] == "Audit" or policy == "ReInduceEachStep":
        metric = induced_metric(phi)
    else:
        metric = identity_metric(grid)
    orthonormal_frame(grid, metric)


def calibrate() -> float:
    """Seconds one fixed numpy kernel takes: the host's speed at this moment.

    The kernel mixes the two kinds of work the workloads do: many small 1-d
    FFTs and array operations, bound by per-call overhead as in
    ``flow_tri_1d``, and batched 2-d FFTs as in ``audit_2d``.  Its sizes
    differ from the workloads' so that it makes none of their FFT plans.
    It runs only between timed sections, never inside one.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((3, 240))
    large = rng.standard_normal((4, 120, 120))
    start = time.perf_counter()
    for _ in range(CAL_SMALL_REPS):
        small = np.fft.ifft(np.fft.fft(small, axis=-1) * 0.5, axis=-1).real * 2.0
    for _ in range(CAL_LARGE_REPS):
        np.fft.ifft2(np.fft.fft2(large, axes=(1, 2)) * 0.5, axes=(1, 2)).real
    return time.perf_counter() - start


def _install_tracer():
    import numpy as np

    from tracer import Tracer

    tracer = Tracer()
    counters, state = tracer.counters, tracer.state

    def on_deriv(args, kwargs, result):
        counters["deriv.elements"] = (
            counters.get("deriv.elements", 0) + int(np.size(args[1])))

    def on_cap(args, kwargs, result):
        state["last_cap"] = result

    def on_step(args, kwargs, result):
        dt = kwargs["dt"] if "dt" in kwargs else args[3]
        if dt == state.get("last_cap"):
            counters["cap_bound"] = counters.get("cap_bound", 0) + 1

    tracer.install(
        "polyflow", LAYERS,
        methods=[("domain_grid", "DomainGrid", "deriv")],
        observers={"domain_grid.deriv": on_deriv,
                   "flow.stability_cap": on_cap,
                   "flow.flow_step": on_step},
    )
    return tracer


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write every span to this CSV file")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the cold set-up and stop")
    args = ap.parse_args()

    cfgs = workloads.configs(args.workload, args.seed, args.out.rstrip("/") + "/")
    _setup(cfgs[0][1])
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        cal_s = [calibrate() for _ in range(SETUP_ONLY_CALS)]
        sys.stdout.write(json.dumps({"setup_s": setup_s, "cal_s": cal_s}) + "\n")
        return

    import numpy as np
    import polyflow
    import polyflow.cli

    tracer = _install_tracer() if args.trace else None
    cal_s = [calibrate()]
    ops = []
    for label, cfg in cfgs:
        t = time.perf_counter()
        code = polyflow.cli.run(polyflow.cli.parse_config(cfg))
        ops.append({"label": label, "exit_code": code,
                    "run_s": time.perf_counter() - t})
        cal_s.append(calibrate())
    result = {
        "setup_s": setup_s,
        "run_s": sum(op["run_s"] for op in ops),
        "cal_s": cal_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "polyflow": polyflow.__version__,
    }
    if tracer is not None:
        result["functions"] = tracer.aggregate(within="flow.run_flow")
        result["counters"] = dict(tracer.counters)
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
