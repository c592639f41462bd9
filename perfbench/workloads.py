"""Workload definitions: configs from a seed, reference values, output checks.

Pure Python on purpose: the worker imports this module before it starts the
set-up clock, so it must not pull in numpy or polyflow.

A seed selects one of VARIANTS input variants (``seed % VARIANTS``).  Each
variant nudges the map parameters slightly and sets the config ``seed``;
every variant has its reference values in ``reference.json``, recorded by
``make_reference.py`` at the commit that defined the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
TWO_PI = 2.0 * math.pi
VARIANTS = 11

WORKLOADS = ("flow_tri_1d", "audit_2d", "flow_bi_2d_reinduce")

# Tolerances of the correctness gate, stated once here.
# flow_tri_1d: a roundoff-level change to `deriv` moves E3 at ~1,500
# iterations by ~0.4%, so the final E3 may move 2% either way.  Fewer
# iterations are the goal of a better descent, so only an increase beyond
# 25% fails; the `iterations` metric bounds smaller increases.
TRI_E3_RTOL = 0.02
TRI_ITER_MAX_FACTOR = 1.25
# Criterion 8's monotonicity rule for accepted E3 values.
MONOTONE_RTOL = 1e-12
# audit_2d: no flow amplifies roundoff, so the energies agree closely.
AUDIT_ENERGY_RTOL = 1e-6
# Closed forms: E = area for an isometric immersion of a surface.
AUDIT_AREA_RTOL = 1e-9
# flow_bi_2d_reinduce: E2 drops by ~1.5e-4 of itself in 40 steps.  An
# rfft-based `deriv` moved that drop (1 - energy_ratio) by 1.9% and the final
# E2 by 3e-6, so the drop may move 5% and the final E2 1e-4.
BI_DROP_RTOL = 0.05
BI_ENERGY_RTOL = 1e-4
BI_ITERS = 40


def variant(seed: int) -> int:
    return seed % VARIANTS


def _grid(n: int, dims: int) -> dict:
    return {"dims": dims, "sizes": [n] * dims, "lengths": [TWO_PI] * dims,
            "differentiation": "Spectral"}


def configs(workload: str, seed: int, prefix: str) -> list:
    """The polyflow configs one run of ``workload`` executes, in order.

    Returns ``[(label, config_dict)]``; outputs go to ``<prefix><label>_*``.
    """
    j = variant(seed)
    d = j - VARIANTS // 2
    if workload == "flow_tri_1d":
        # Criterion 8's flow, stopped at grad_tol 33.  The iteration count
        # grows by ~330 per 0.001 of amplitude (0 at 0.045, 3,178 at
        # 0.055), so the seed moves the amplitude by at most 5e-5: the
        # inputs vary while the work per run stays within ~1%.
        return [("tri", {
            "target": {"c": -1.0, "n": 2},
            "grid": _grid(256, 1),
            "initial_map": {"name": "PerturbedGeodesicH2",
                            "params": {"amplitude": 0.05 + 1e-5 * d, "k": 3}},
            "action": "Flow",
            "flow": {"kind": "Triharmonic", "max_iters": 100000,
                     "grad_tol": 33.0, "armijo_c": 1e-4, "shrink": 0.5,
                     "metric_policy": "FixedPrescribed"},
            "seed": j,
            "output_prefix": prefix + "tri",
        })]
    if workload == "audit_2d":
        grid = _grid(128, 2)
        maps = (
            ("s3", {"c": 1.0, "n": 3}, {"alpha": math.pi / 5.0 + 0.002 * d}),
            ("h3", {"c": -1.0, "n": 3}, {"a": 1.0, "rho": 0.4 + 0.002 * d}),
            ("r4", {"c": 0.0, "n": 4}, {"r1": 1.0, "r2": 0.7 + 0.002 * d}),
        )
        return [(label, {
            "target": target,
            "grid": grid,
            "initial_map": {"name": "TorusCliffordLike", "params": params},
            "action": "Audit",
            "seed": j,
            "output_prefix": prefix + label,
        }) for label, target, params in maps]
    if workload == "flow_bi_2d_reinduce":
        return [("bi", {
            "target": {"c": -1.0, "n": 3},
            "grid": _grid(64, 2),
            "initial_map": {"name": "TorusCliffordLike",
                            "params": {"a": 1.0, "rho": 0.4 + 0.002 * d}},
            "action": "Flow",
            "flow": {"kind": "Biharmonic", "max_iters": BI_ITERS,
                     "grad_tol": 1e-8, "metric_policy": "ReInduceEachStep"},
            "seed": j,
            "output_prefix": prefix + "bi",
        })]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def read_trace(path) -> dict:
    """Trace CSV as columns of floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0.0 else abs(a)


def _flowed_energy(workload: str) -> str:
    return "E3" if workload == "flow_tri_1d" else "E2"


def observe(workload: str, label: str, cfg: dict, exit_code: int) -> dict:
    """Read one operation's outputs into the values the checks compare."""
    prefix = cfg["output_prefix"]
    summary_path = Path(prefix + "_summary.json")
    obs = {"exit_code": exit_code, "output_bytes": 0}
    if not summary_path.exists():
        return obs
    obs["output_bytes"] += summary_path.stat().st_size
    summary = json.loads(summary_path.read_text())
    energies = summary.get("energies", {})
    obs.update({k: energies.get(k) for k in ("E", "E2", "E3")})
    if cfg["action"] == "Audit":
        checks = summary.get("audit", {})
        obs["checks"] = len(checks)
        obs["checks_failed"] = sorted(
            n for n, c in checks.items() if not (c["pass"] or c["skipped"]))
        return obs
    trace_path = Path(prefix + "_trace.csv")
    obs["status"] = summary["flow"]["status"]
    obs["iterations"] = summary["flow"]["iterations"]
    if not trace_path.exists():
        return obs
    obs["output_bytes"] += trace_path.stat().st_size
    trace = read_trace(trace_path)
    energy = trace[_flowed_energy(workload)]
    dts = trace["dt"][1:]
    accepted = [e for e, dt in zip(energy[1:], dts) if dt > 0.0]
    obs["energy_initial"] = energy[0]
    obs["energy_final"] = energy[-1]
    obs["energy_ratio"] = energy[-1] / energy[0]
    obs["trials"] = len(dts)
    obs["accepted"] = len(accepted)
    series = [energy[0]] + accepted
    obs["monotone"] = all(
        b - a <= MONOTONE_RTOL * abs(a) for a, b in zip(series, series[1:]))
    obs["finite"] = all(
        math.isfinite(v) for k in ("E", "E2", "E3", "Etilde4") for v in trace[k])
    return obs


def check(workload: str, label: str, cfg: dict, obs: dict, ref) -> list:
    """Problems found in one operation's outputs; empty when correct.

    ``ref=None`` checks only what needs no reference value.
    """
    bad = []
    if obs["exit_code"] != 0:
        bad.append(f"exit code {obs['exit_code']}")
    if obs.get("E3") is None:
        return bad + ["no summary"]
    if workload == "audit_2d":
        if obs["checks_failed"]:
            bad.append(f"audit checks failed: {obs['checks_failed']}")
        for k in ("E", "E2", "E3") if ref else ():
            if _rel(obs[k], ref[k]) > AUDIT_ENERGY_RTOL:
                bad.append(f"{k} {obs[k]!r} vs reference {ref[k]!r}")
        area = _closed_form_area(cfg)
        if area is not None and _rel(obs["E"], area) > AUDIT_AREA_RTOL:
            bad.append(f"E {obs['E']!r} vs closed-form area {area!r}")
        return bad
    if "energy_ratio" not in obs:
        return bad + ["no trace"]
    if not obs["finite"]:
        bad.append("non-finite energy in trace")
    if workload == "flow_tri_1d":
        if obs["status"] != "converged":
            bad.append(f"status {obs['status']}")
        if not obs["monotone"]:
            bad.append("accepted E3 not monotone")
        if obs["iterations"] < 1:
            bad.append("no iteration")
        if ref is None:
            return bad
        if _rel(obs["energy_final"], ref["energy_final"]) > TRI_E3_RTOL:
            bad.append(f"final E3 {obs['energy_final']!r} vs reference "
                       f"{ref['energy_final']!r}")
        if obs["iterations"] > TRI_ITER_MAX_FACTOR * ref["iterations"]:
            bad.append(f"{obs['iterations']} iterations vs reference "
                       f"{ref['iterations']}")
    else:
        if obs["status"] != "max_iters" or obs["iterations"] != BI_ITERS:
            bad.append(f"status {obs['status']} after {obs['iterations']} "
                       "iterations")
        if ref is None:
            return bad
        drop, drop_ref = 1.0 - obs["energy_ratio"], 1.0 - ref["energy_ratio"]
        if _rel(drop, drop_ref) > BI_DROP_RTOL:
            bad.append(f"energy_ratio {obs['energy_ratio']!r} vs reference "
                       f"{ref['energy_ratio']!r}")
        if _rel(obs["energy_final"], ref["energy_final"]) > BI_ENERGY_RTOL:
            bad.append(f"final E2 {obs['energy_final']!r} vs reference "
                       f"{ref['energy_final']!r}")
    return bad


def _closed_form_area(cfg: dict):
    """Area of the flat and spherical tori (unit-radius sphere), else None."""
    params = cfg["initial_map"]["params"]
    c = cfg["target"]["c"]
    if c == 0.0:
        return TWO_PI**2 * params["r1"] * params["r2"]
    if c == 1.0:
        return TWO_PI**2 * math.cos(params["alpha"]) * math.sin(params["alpha"])
    return None


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_for(refs: dict, workload: str, seed: int, label: str) -> dict:
    return refs[workload][str(variant(seed))][label]


def reference_entry(workload: str, obs: dict) -> dict:
    """The values of one observation that later runs are checked against."""
    if workload == "audit_2d":
        return {k: obs[k] for k in ("E", "E2", "E3", "checks")}
    keys = ("iterations", "energy_initial", "energy_final", "energy_ratio")
    return {k: obs[k] for k in keys}
