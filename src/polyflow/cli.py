"""Experiment runner: JSON config in, JSON summary (+ CSV trace) out.

Exit codes: 0 success, 1 audit/check failure, 2 configuration error or an
input the run cannot use (any PolyflowError, e.g. a map with non-finite
coordinates).
Summaries serialize floats with Python's shortest round-trip repr, which
preserves all 17 significant digits of a double.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .domain_grid import (
    GridSpec,
    build_grid,
    identity_metric,
    induced_metric,
    orthonormal_frame,
    real_number,
    whole_number,
)
from .energy import energy_report
from .errors import (ConfigError, DegenerateImmersion, DegeneratePoint, InvalidSpec,
                     PolyflowError)
from .examples import builtin_map, example_catalog
from .flow import FlowConfig, run_flow, theorem_probe
from .pullback import TensionChain
from .space_form import Model, SpaceFormSpec
from .verify import (
    first_variation_residual,
    pointwise_identity_audit,
    random_tangent_section,
    tension_variation_residual,
)

__all__ = ["ExperimentConfig", "load_config", "run", "main"]

ROUNDOFF_FLOOR = 1e-9  # FD residual level below which O(t^2) decay is vacuous


class Action(str, Enum):
    AUDIT = "Audit"
    ENERGIES = "Energies"
    FLOW = "Flow"
    VARIATION_CHECK = "VariationCheck"


@dataclass
class ExperimentConfig:
    target: SpaceFormSpec
    grid: GridSpec
    map_name: str
    map_params: dict
    action: Action
    flow: FlowConfig = None
    p_list: tuple = (2.0, 4.0)
    output_prefix: str = "polyflow_out"
    seed: int = 0
    raw: dict = field(default_factory=dict, repr=False)


def _reject_unknown(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config mapping; every malformed value is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(
        data,
        {"target", "grid", "initial_map", "action", "flow", "p_list",
         "output_prefix", "seed"},
        "config",
    )
    try:
        target_d = _need(data, "target", "config")
        _reject_unknown(target_d, {"c", "n", "model"}, "target")
        target = SpaceFormSpec(c=_need(target_d, "c", "target"),
                               n=_need(target_d, "n", "target"))
        if "model" in target_d and Model(target_d["model"]) is not target.model:
            raise ConfigError(
                f"model {target_d['model']!r} contradicts curvature c={target.c}"
            )

        grid_d = _need(data, "grid", "config")
        _reject_unknown(grid_d, {"dims", "sizes", "lengths", "differentiation"}, "grid")
        grid = GridSpec(
            dims=_need(grid_d, "dims", "grid"),
            sizes=tuple(_need(grid_d, "sizes", "grid")),
            lengths=tuple(_need(grid_d, "lengths", "grid")),
            differentiation=grid_d.get("differentiation", "Spectral"),
        )

        map_d = _need(data, "initial_map", "config")
        _reject_unknown(map_d, {"name", "params"}, "initial_map")
        name = str(_need(map_d, "name", "initial_map"))
        params = map_d.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("initial_map.params must be an object")

        action = Action(_need(data, "action", "config"))
        flow_cfg = None
        if action is Action.FLOW:
            flow_d = _need(data, "flow", "config")
            _reject_unknown(flow_d, [f.name for f in fields(FlowConfig)], "flow")
            flow_cfg = FlowConfig(**flow_d)
        elif "flow" in data:
            raise ConfigError("flow section is only valid with action = Flow")

        p_list = tuple(real_number(p, "p_list") for p in data.get("p_list", (2.0, 4.0)))
        if not all(p >= 1.0 for p in p_list):
            raise ConfigError("p_list entries must be >= 1")
        seed = whole_number(data.get("seed", 0), "seed")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        prefix = str(data.get("output_prefix", "polyflow_out"))
    except (InvalidSpec, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value: {exc}") from exc
    return ExperimentConfig(
        target=target,
        grid=grid,
        map_name=name,
        map_params=params,
        action=action,
        flow=flow_cfg,
        p_list=p_list,
        output_prefix=prefix,
        seed=seed,
        raw=data,
    )


def _finite_float(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_finite_float,
                             parse_float=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def _choose_metric(phi, action: Action, notes: list):
    """Audits/energies prefer the induced metric so isometric identities
    apply; non-immersed maps fall back to the flat prescribed metric."""
    if action is Action.VARIATION_CHECK:
        notes.append("variation checks run over the fixed flat metric")
        return identity_metric(phi.grid)
    try:
        return induced_metric(phi)
    except DegenerateImmersion:
        notes.append("map does not immerse; using the flat prescribed metric")
        return identity_metric(phi.grid)


def _richardson(residual, t: float, tol: float) -> dict:
    """Residuals at t and t/2: pass when below ``tol`` and decaying O(t^2).
    The ratio is None (JSON null) when the half-step residual is 0."""
    r1, r2 = residual(t), residual(t / 2.0)
    ratio = r1 / r2 if r2 > 0.0 else None
    decays = r2 <= ROUNDOFF_FLOOR or 3.5 <= ratio <= 4.5
    return {"residual": r1, "residual_half_t": r2, "richardson_ratio": ratio,
            "pass": r1 <= tol and decays}


def _variation_results(chain: TensionChain, seed: int) -> dict:
    t = 1e-3
    checks = {}
    for k in (1, 2, 3):
        V = random_tangent_section(chain.phi, seed=seed + k)
        checks[f"energy_order_{k}"] = _richardson(
            lambda s: first_variation_residual(chain, V, k, s), t, 1e-4
        )
    V = random_tangent_section(chain.phi, seed=seed + 7)
    checks["tension_variation"] = _richardson(
        lambda s: tension_variation_residual(chain, V, s), t, 1e-3
    )
    return {"t": t, "checks": checks, "pass": all(c["pass"] for c in checks.values())}


def _write_trace(path: Path, trace) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(trace.COLUMNS) + "\n")
        for row in trace.rows:
            fh.write(",".join(repr(v) for v in row) + "\n")


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; writes `<prefix>_summary.json` and, for
    flows, `<prefix>_trace.csv`.  Returns the process exit code."""
    notes = []
    grid = build_grid(config.grid)
    phi = builtin_map(config.map_name, config.map_params, grid, config.target)

    summary = {
        "action": config.action.value,
        "config": config.raw,
        "notes": notes,
        "provenance": {
            "polyflow_version": __version__,
            "numpy_version": np.__version__,
            "differentiation": config.grid.differentiation.value,
            "grid_sizes": list(config.grid.sizes),
        },
    }
    exit_code = 0

    if config.action is Action.FLOW:
        state, trace = run_flow(phi, config.flow)
        trace_path = Path(config.output_prefix + "_trace.csv")
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        _write_trace(trace_path, trace)
        summary["flow"] = {"status": trace.status,
                           "iterations": trace.rows[-1][0] if trace.rows else 0,
                           "flow_time": math.fsum(trace.column("dt")[1:])}
        if state is not None:
            summary["probe"] = theorem_probe(state, trace.status).to_dict()
            summary["energies"] = energy_report(state, p_list=config.p_list).to_dict()
        else:
            notes.append("the initial map is not finite; no state was probed")
    else:
        if not np.all(np.isfinite(phi.values)):
            raise DegeneratePoint("the initial map has non-finite coordinates")
        metric = _choose_metric(phi, config.action, notes)
        chain = TensionChain(phi, orthonormal_frame(grid, metric))
        summary["metric_mode"] = metric.mode.value
        summary["energies"] = energy_report(chain, p_list=config.p_list).to_dict()
        checked, failing = None, []  # what was checked, its failing checks
        if config.action is Action.AUDIT:
            report = pointwise_identity_audit(chain, seed=config.seed)
            summary["audit"] = report.to_dict()
            checked, failing = "audit", report.failing
        elif config.action is Action.VARIATION_CHECK:
            variation = _variation_results(chain, config.seed)
            summary["variation"] = variation
            checked, failing = "variation check", [
                n for n, c in variation["checks"].items() if not c["pass"]]
        if failing:
            print(f"{checked} failed: {', '.join(failing)}", file=sys.stderr)
            exit_code = 1

    for p, value in summary.get("energies", {}).get("Lp_tension", {}).items():
        if not math.isfinite(value):  # Infinity is not JSON
            summary["energies"]["Lp_tension"][p] = None
            notes.append(f"Int |tau|^p overflows at p = {p}; written as null")
    out_path = Path(config.output_prefix + "_summary.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:  # one write: json.dump writes per chunk
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polyflow",
        description="tension-field calculus and polyharmonic gradient flow "
        "on constant-curvature targets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the experiment in a JSON config")
    p_run.add_argument("config", help="path to the experiment config")
    sub.add_parser("examples", help="list built-in maps and their parameters")

    args = parser.parse_args(argv)
    if args.command == "examples":
        print(json.dumps(example_catalog(), indent=2, sort_keys=True))
        return 0
    try:
        return run(load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PolyflowError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
