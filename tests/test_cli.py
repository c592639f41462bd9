"""Config parsing, experiment runner, output formats, exit codes."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import polyflow
from polyflow import cli, domain_grid
from polyflow import space_form as sf
from polyflow.cli import load_config, main, parse_config, run
from polyflow.errors import ConfigError
from polyflow.flow import FlowConfig, FlowTrace
from polyflow.pullback import TensionChain
from polyflow.verify import AuditCheck, AuditReport

from conftest import fail_third_trial, load_summary, record_derivs

TWO_PI = 2 * np.pi
TRACE_HEADER = "iter,E,E2,E3,Etilde4,L4_tension,sup_tau,sup_descent,dt"


def base_config(prefix, action="Energies"):
    return {
        "target": {"c": 0.0, "n": 2, "model": "Flat"},
        "grid": {
            "dims": 1,
            "sizes": [64],
            "lengths": [TWO_PI],
            "differentiation": "Spectral",
        },
        "initial_map": {"name": "Circle", "params": {"r": 1.0}},
        "action": action,
        "p_list": [2, 4],
        "output_prefix": str(prefix),
        "seed": 0,
    }


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_parse_rejects_unknown_keys(tmp_path):
    data = base_config(tmp_path / "out")
    data["bogus"] = 1
    with pytest.raises(ConfigError):
        parse_config(data)


def test_parse_rejects_model_mismatch(tmp_path):
    data = base_config(tmp_path / "out")
    data["target"]["model"] = "Sphere"
    with pytest.raises(ConfigError):
        parse_config(data)


def test_parse_rejects_small_grid(tmp_path):
    data = base_config(tmp_path / "out")
    data["grid"]["sizes"] = [8]
    with pytest.raises(ConfigError):
        parse_config(data)


def test_parse_rejects_flow_section_without_flow_action(tmp_path):
    data = base_config(tmp_path / "out")
    data["flow"] = {"kind": "Harmonic"}
    with pytest.raises(ConfigError):
        parse_config(data)


@pytest.mark.parametrize("flow", [
    {"max_iters": "many"},
    {"max_iters": -1},
    {"grad_tol": "tiny"},
    {"kind": "Quadharmonic"},
    {"shrink": 1.5},
    {"dt0": float("nan")},
    {"dt0": float("inf")},
    {"grad_tol": float("nan")},
])
def test_parse_rejects_bad_flow_values(tmp_path, flow):
    data = base_config(tmp_path / "out", action="Flow")
    data["flow"] = flow
    with pytest.raises(ConfigError):
        parse_config(data)


def test_parse_flow_defaults(tmp_path):
    data = base_config(tmp_path / "out", action="Flow")
    data["flow"] = {"kind": "Triharmonic"}
    assert parse_config(data).flow == FlowConfig()


def test_parse_rejects_bad_p(tmp_path):
    data = base_config(tmp_path / "out")
    data["p_list"] = [0.5]
    with pytest.raises(ConfigError):
        parse_config(data)


# Top-level keys replaced by raw JSON text, and the stderr marker of the
# exit-2 error: values of the wrong type, and numbers that are not finite.
BAD_VALUES = {
    "seed_str": ({"seed": '"abc"'}, "config error"),
    "p_list_str": ({"p_list": '["x"]'}, "config error"),
    "p_list_scalar": ({"p_list": "4"}, "config error"),
    "model_unknown": ({"target": '{"c": 0.0, "n": 2, "model": "Foo"}'}, "config error"),
    "circle_r_str": ({"initial_map": '{"name": "Circle", "params": {"r": "big"}}'},
                     "BadParams"),
    "map_name_list": ({"initial_map": '{"name": ["Circle"]}'}, "UnknownExample"),
    "geodesic_k_str": ({"target": '{"c": -1.0, "n": 2}', "initial_map":
                        '{"name": "PerturbedGeodesicH2", "params": {"k": "x"}}'},
                       "BadParams"),
    "grad_tol_nan": ({"action": '"Flow"', "flow": '{"grad_tol": NaN}'}, "config error"),
    "grad_tol_huge": ({"action": '"Flow"', "flow": '{"grad_tol": 1e400}'},
                      "config error"),
    "dt0_nan": ({"action": '"Flow"', "flow": '{"dt0": NaN}'}, "config error"),
    "dt0_huge": ({"action": '"Flow"', "flow": '{"dt0": 1e400}'}, "config error"),
    "max_iters_huge": ({"action": '"Flow"', "flow": '{"max_iters": 1e400}'},
                       "config error"),
    "p_list_nan": ({"p_list": "[NaN]"}, "config error"),
    "p_list_inf": ({"p_list": "[2, Infinity]"}, "config error"),
    "p_list_huge": ({"p_list": "[-1e400]"}, "config error"),
    # counts that are not whole numbers are rejected, not truncated
    "sizes_fraction": ({"grid": '{"dims": 1, "sizes": [64.5], "lengths": [6.28]}'},
                       "config error"),
    "dims_fraction": ({"grid": '{"dims": 1.5, "sizes": [64], "lengths": [6.28]}'},
                      "config error"),
    "n_fraction": ({"target": '{"c": 0.0, "n": 2.5}'}, "config error"),
    "seed_fraction": ({"seed": "2.5"}, "config error"),
    "max_iters_fraction": ({"action": '"Flow"', "flow": '{"max_iters": 2.7}'},
                           "config error"),
    "geodesic_k_fraction": ({"target": '{"c": -1.0, "n": 2}', "initial_map":
                             '{"name": "PerturbedGeodesicH2", "params": {"k": 2.5}}'},
                            "BadParams"),
    "sizes_huge": ({"grid": '{"dims": 1, "sizes": [1000000000000], "lengths": [6.28]}'},
                   "config error"),
    "metric_policy_reinduce": ({"action": '"Flow"',
                                "flow": '{"metric_policy": "ReInduceEachStep"}'},
                               "config error"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_values_exit_2(tmp_path, capsys, case):
    raw, marker = BAD_VALUES[case]
    data = base_config(tmp_path / "bad")
    data.update({key: f"@{key}@" for key in raw})
    text = json.dumps(data)
    for key, value in raw.items():
        text = text.replace(f'"@{key}@"', value)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert marker in capsys.readouterr().err
    assert not (tmp_path / "bad_summary.json").exists()


# (section, key, value): a JSON true where a number is expected is a config
# error naming the key, never read as 1.
BOOLEAN_VALUES = [
    ("target", "c", True),
    ("target", "n", True),
    ("grid", "dims", True),
    ("grid", "sizes", [True]),
    ("grid", "lengths", [True]),
    ("flow", "dt0", True),
    ("flow", "grad_tol", True),
    ("flow", "armijo_c", True),
    ("flow", "shrink", True),
    ("flow", "max_iters", True),
    (None, "seed", True),
    (None, "p_list", [True]),
]


# A JSON string where a real number is expected is a config error naming the
# key too, never parsed as the number it spells.
STRING_VALUES = [
    ("target", "c", "-1"),
    ("grid", "lengths", ["6.283185307179586"]),
    (None, "p_list", ["4"]),
    ("flow", "dt0", "0.25"),
    ("flow", "grad_tol", "1e-8"),
    ("flow", "armijo_c", "1e-4"),
    ("flow", "shrink", "0.5"),
]


def case_ids(cases):
    return [f"{s or 'config'}.{k}" for s, k, _ in cases]


def assert_config_error_names_key(tmp_path, capsys, section, key, value):
    data = base_config(tmp_path / "bad", action="Flow")
    data["flow"] = {"kind": "Harmonic", "max_iters": 1}
    del data["target"]["model"]  # c = 1 would contradict the Flat model
    (data[section] if section else data)[key] = value
    assert main(["run", str(write_config(tmp_path, data))]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{key} must be" in err
    assert not (tmp_path / "bad_summary.json").exists()


@pytest.mark.parametrize("section,key,value", BOOLEAN_VALUES,
                         ids=case_ids(BOOLEAN_VALUES))
def test_boolean_values_exit_2(tmp_path, capsys, section, key, value):
    assert_config_error_names_key(tmp_path, capsys, section, key, value)


@pytest.mark.parametrize("section,key,value", STRING_VALUES,
                         ids=case_ids(STRING_VALUES))
def test_string_values_exit_2(tmp_path, capsys, section, key, value):
    assert_config_error_names_key(tmp_path, capsys, section, key, value)


# (family, target, grid dims, parameter): a JSON true for a real-valued map
# parameter is an error naming the parameter, never read as 1.0.
BOOLEAN_MAP_PARAMS = [
    ("Circle", {"c": 0.0, "n": 2}, 1, "r"),
    ("PerturbedGeodesicH2", {"c": -1.0, "n": 2}, 1, "amplitude"),
    ("TorusCliffordLike", {"c": 1.0, "n": 3}, 2, "alpha"),
]


@pytest.mark.parametrize("name,target,dims,key", BOOLEAN_MAP_PARAMS,
                         ids=[f"{n}.{k}" for n, _, _, k in BOOLEAN_MAP_PARAMS])
def test_boolean_map_parameters_exit_2(tmp_path, capsys, name, target, dims, key):
    data = base_config(tmp_path / "bad")
    data["target"] = target
    data["grid"].update(dims=dims, sizes=[16] * dims, lengths=[TWO_PI] * dims)
    data["initial_map"] = {"name": name, "params": {key: True}}
    assert main(["run", str(write_config(tmp_path, data))]) == 2
    err = capsys.readouterr().err
    assert "BadParams" in err and f"{key} must be a real number" in err
    assert not (tmp_path / "bad_summary.json").exists()


@pytest.mark.parametrize("action", ["Energies", "Audit", "VariationCheck", "Flow"])
@pytest.mark.parametrize("target", [{"c": 0.0, "n": 3}, {"c": 1.0, "n": 3},
                                    {"c": -1.0, "n": 4}], ids=["R3", "S3", "H4"])
def test_circle_off_a_2d_target_exits_2(tmp_path, capsys, action, target):
    # the circle lives in a plane, 2-sphere or hyperbolic plane: any other
    # dimension is a named error, never a map into a smaller space
    data = base_config(tmp_path / "ci", action=action)
    data["target"] = target
    data["initial_map"] = {"name": "Circle", "params": {"r": 0.7}}
    if action == "Flow":
        data["flow"] = {"kind": "Harmonic", "max_iters": 1}
    assert main(["run", str(write_config(tmp_path, data))]) == 2
    err = capsys.readouterr().err
    assert "BadParams" in err and "n = 2" in err
    assert not (tmp_path / "ci_summary.json").exists()


@pytest.mark.parametrize("action", ["Energies", "Audit", "VariationCheck", "Flow"])
def test_negative_seed_exits_2(tmp_path, capsys, action):
    # np.random.default_rng rejects a negative seed, and VariationCheck seeds
    # with seed + k: the config is refused before any run starts
    data = base_config(tmp_path / "neg", action=action)
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 0.7}}
    data["seed"] = -2 if action == "VariationCheck" else -1
    if action == "Flow":
        data["flow"] = {"kind": "Harmonic", "max_iters": 1}
    assert main(["run", str(write_config(tmp_path, data))]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed must be >= 0" in err
    assert not (tmp_path / "neg_summary.json").exists()


def test_overflowing_lp_norm_is_written_as_null(tmp_path):
    # |tau| = coth(0.7) > 1 on this circle, so Int |tau|^p overflows at
    # p = 1e5; Infinity is not JSON, so the value is null and a note names p
    data = base_config(tmp_path / "lp")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 0.7}}
    data["p_list"] = [2.0, 100000.0]
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert run(parse_config(data)) == 0
    summary = load_summary(tmp_path / "lp_summary.json")
    lp = summary["energies"]["Lp_tension"]
    assert lp["100000.0"] is None and math.isfinite(lp["2.0"])
    assert summary["notes"] == ["Int |tau|^p overflows at p = 100000.0; written as null"]


@pytest.mark.parametrize("p", [1403.7577800274958, 1409.0])
def test_lp_norm_is_the_integral_not_the_node_sum(tmp_path, p):
    # the 64-node sum of |tau|^p vol overflows for p in about (1401.8, 1409.5),
    # while Int |tau|^p = volume |tau|^p (|tau| is constant) fits below
    # p = 1403.76; beyond it the integral itself overflows and is null
    data = base_config(tmp_path / "lp")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 0.7}}
    data["p_list"] = [p]
    assert run(parse_config(data)) == 0
    summary = load_summary(tmp_path / "lp_summary.json")
    energies = summary["energies"]
    lp = energies["Lp_tension"][str(p)]
    if p < 1405.0:
        assert lp == pytest.approx(energies["volume"] * energies["sup_tau"] ** p,
                                   rel=1e-9)
        assert summary["notes"] == []
    else:
        assert lp is None
        assert summary["notes"] == [f"Int |tau|^p overflows at p = {p}; written as null"]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_trace_header_is_the_column_list():
    assert ",".join(FlowTrace.COLUMNS) == TRACE_HEADER
    assert TRACE_HEADER in README.read_text()


def test_readme_examples_run():
    # the README's Python session runs and its config parses as written
    text = README.read_text()
    (session,) = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(compile(session, str(README), "exec"), {})
    (config,) = re.findall(r"```json\n(.*?)```", text, re.S)
    assert parse_config(load_summary(config)).action.value == "Flow"


def test_parse_accepts_whole_floats(tmp_path):
    data = base_config(tmp_path / "out", action="Flow")
    data["grid"].update(dims=1.0, sizes=[64.0])
    data["target"]["n"] = 2.0
    data["seed"] = 3.0
    data["flow"] = {"max_iters": 5.0}
    config = parse_config(data)
    assert config.grid.sizes == (64,) and config.grid.dims == 1
    assert config.target.n == 2 and config.seed == 3 and config.flow.max_iters == 5
    assert all(type(v) is int for v in (config.grid.dims, *config.grid.sizes,
                                        config.target.n, config.seed,
                                        config.flow.max_iters))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_run_energies(tmp_path):
    prefix = tmp_path / "out" / "circle"
    config = parse_config(base_config(prefix))
    assert run(config) == 0
    summary = load_summary(tmp_path / "out" / "circle_summary.json")
    assert summary["action"] == "Energies"
    assert summary["energies"]["E2"] == pytest.approx(np.pi, abs=1e-10)
    assert summary["metric_mode"] == "Induced"


def test_run_audit_geodesic(tmp_path):
    prefix = tmp_path / "geo"
    data = base_config(prefix, action="Audit")
    data["target"] = {"c": 1.0, "n": 2}
    data["initial_map"] = {"name": "GreatCircleS2", "params": {}}
    assert run(parse_config(data)) == 0
    summary = load_summary(tmp_path / "geo_summary.json")
    assert all(c["pass"] or c["skipped"] for c in summary["audit"].values())


def test_run_variation_check(tmp_path):
    prefix = tmp_path / "var"
    data = base_config(prefix, action="VariationCheck")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 0.8}}
    data["grid"]["sizes"] = [128]
    assert run(parse_config(data)) == 0
    summary = load_summary(tmp_path / "var_summary.json")
    assert summary["variation"]["pass"]
    assert set(summary["variation"]["checks"]) == {
        "energy_order_1",
        "energy_order_2",
        "energy_order_3",
        "tension_variation",
    }


@pytest.mark.parametrize("action", ["Energies", "Audit"])
def test_map_that_does_not_immerse_falls_back_to_the_flat_metric(tmp_path, action):
    # amplitude 0 is the constant map, whose induced metric is singular
    prefix = tmp_path / "const"
    data = base_config(prefix, action=action)
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "PerturbedGeodesicH2",
                           "params": {"amplitude": 0.0, "k": 2}}
    assert run(parse_config(data)) == 0
    summary = load_summary(tmp_path / "const_summary.json")
    assert summary["metric_mode"] == "Prescribed"
    assert "map does not immerse; using the flat prescribed metric" in summary["notes"]
    if action == "Audit":
        assert len(summary["audit"]) == 6
        assert all(c["pass"] for c in summary["audit"].values())


# GreatCircleS2 (winding 2) on S^2 at N 128: seed 1 reads Richardson ratio
# 5.09 on tension_variation, seed 2 reads 4.06.  The spectral backend's
# per-line relative cutoff puts a step in t into that residual (CHANGES.md)
@pytest.mark.parametrize("seed", [
    pytest.param(1, marks=pytest.mark.xfail(
        strict=True, reason="spectral cutoff step in tension_variation: ratio 5.09")),
    2,
])
def test_great_circle_variation_check(tmp_path, seed):
    prefix = tmp_path / "gc"
    data = base_config(prefix, action="VariationCheck")
    data["target"] = {"c": 1.0, "n": 2}
    data["initial_map"] = {"name": "GreatCircleS2", "params": {"winding": 2}}
    data["grid"]["sizes"] = [128]
    data["seed"] = seed
    assert run(parse_config(data)) == 0
    assert load_summary(tmp_path / "gc_summary.json")["variation"]["pass"]


def test_run_flow_writes_trace(tmp_path):
    prefix = tmp_path / "flow" / "h2"
    data = base_config(prefix, action="Flow")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {
        "name": "PerturbedGeodesicH2",
        "params": {"amplitude": 0.01, "k": 2},
    }
    data["flow"] = {
        "kind": "Triharmonic",
        "max_iters": 20000,
        "grad_tol": 1e-6,
    }
    assert run(parse_config(data)) == 0
    trace_lines = (tmp_path / "flow" / "h2_trace.csv").read_text().splitlines()
    assert trace_lines[0] == TRACE_HEADER
    assert len(trace_lines) >= 2
    summary = load_summary(tmp_path / "flow" / "h2_summary.json")
    assert summary["flow"]["status"] == "converged"
    assert summary["probe"]["classification"] == "minimal"


@pytest.mark.parametrize("max_iters, immersed", [(5, True), (20, False)])
def test_flow_summary_time_provenance_and_probe(tmp_path, max_iters, immersed):
    # flow_time is the sum of the accepted steps in the trace.  The
    # biharmonic flow shrinks a hyperbolic circle: after 5 steps it still
    # immerses, after 20 it has collapsed to a near-constant map, and the
    # probe says its verdict does not test the theorem
    data = base_config(tmp_path / "ft", action="Flow")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 1.0}}
    data["flow"] = {"kind": "Biharmonic", "max_iters": max_iters, "grad_tol": 1e-12}
    assert run(parse_config(data)) == 0
    summary = load_summary(tmp_path / "ft_summary.json")
    rows = (tmp_path / "ft_trace.csv").read_text().splitlines()[2:]
    dts = [float(line.split(",")[TRACE_HEADER.split(",").index("dt")]) for line in rows]
    assert summary["flow"]["flow_time"] == math.fsum(dts) > 0.0
    assert summary["provenance"] == {
        "polyflow_version": polyflow.__version__,
        "numpy_version": np.__version__,
        "differentiation": "Spectral",
        "grid_sizes": [64],
    }
    probe = summary["probe"]
    assert probe["immersed"] is immersed
    assert probe["isometry_defect"] > 0.0  # the flat frame is not the induced metric
    assert probe["E"] == summary["energies"]["E"] > 0.0
    assert probe["Etilde4"] == summary["energies"]["Etilde4"]
    assert probe["L4_tension"] == summary["energies"]["Lp_tension"]["4.0"]
    hypothesis = [c for c in probe["caveats"] if "does not immerse" in c]
    assert len(hypothesis) == (0 if immersed else 1)


def test_run_flow_degenerate_writes_outputs(tmp_path, monkeypatch):
    # the third trial's candidate cannot be projected onto the model: the
    # flow ends "degenerate" and its last good state is probed
    data = base_config(tmp_path / "deg", action="Flow")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 1.0}}
    data["flow"] = {"kind": "Biharmonic", "max_iters": 10, "grad_tol": 1e-12}
    fail_third_trial(monkeypatch)
    assert main(["run", str(write_config(tmp_path, data))]) == 0
    summary = load_summary(tmp_path / "deg_summary.json")
    assert summary["flow"]["status"] == "degenerate"
    assert summary["flow"]["iterations"] == 2
    assert "probe" in summary and "energies" in summary
    trace_lines = (tmp_path / "deg_trace.csv").read_text().splitlines()
    assert trace_lines[0] == TRACE_HEADER and len(trace_lines) == 1 + 3
    assert trace_lines[-1].startswith("2,")


def test_run_flow_nonfinite_at_step_0_writes_outputs(tmp_path):
    # cosh overflows for a hyperbolic circle of radius 800: the initial map
    # is not finite, so the flow ends "nonfinite" and nothing is probed
    data = base_config(tmp_path / "nf", action="Flow")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 800.0}}
    data["flow"] = {"kind": "Triharmonic"}
    with pytest.warns(RuntimeWarning):
        assert main(["run", str(write_config(tmp_path, data))]) == 0
    trace_lines = (tmp_path / "nf_trace.csv").read_text().splitlines()
    assert trace_lines == [TRACE_HEADER]
    summary = load_summary(tmp_path / "nf_summary.json")
    assert summary["flow"] == {"status": "nonfinite", "iterations": 0, "flow_time": 0.0}
    assert any("not finite" in note for note in summary["notes"])
    assert "probe" not in summary and "energies" not in summary


def record_chains(monkeypatch) -> list:
    """The map of every TensionChain built from now on, in order."""
    maps, init = [], TensionChain.__init__

    def recording(self, phi, frame):
        maps.append(phi)
        init(self, phi, frame)

    monkeypatch.setattr(TensionChain, "__init__", recording)
    return maps


def test_variation_check_builds_one_chain_of_its_map(tmp_path, monkeypatch):
    # the energies and the eight residuals share the unvaried map's chain;
    # each residual builds chains of its two varied maps only
    maps = record_chains(monkeypatch)
    data = base_config(tmp_path / "var", action="VariationCheck")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 0.8}}
    assert run(parse_config(data)) == 0
    assert sum(phi is maps[0] for phi in maps) == 1
    assert len(maps) == 1 + 8 * 2


@pytest.mark.parametrize("policy", ["FixedPrescribed"])
def test_flow_builds_no_chain_after_run_flow(tmp_path, monkeypatch, policy):
    # the probe and the energies read the end state's chain from run_flow
    maps, built_by_flow = record_chains(monkeypatch), []
    flow = cli.run_flow

    def recording_flow(*args):
        out = flow(*args)
        built_by_flow.append(len(maps))
        return out

    monkeypatch.setattr(cli, "run_flow", recording_flow)
    data = base_config(tmp_path / "flow", action="Flow")
    data["target"] = {"c": -1.0, "n": 2}
    data["flow"] = {"kind": "Biharmonic", "max_iters": 3, "metric_policy": policy}
    assert run(parse_config(data)) == 0
    summary = load_summary(tmp_path / "flow_summary.json")
    assert "probe" in summary and "energies" in summary
    assert built_by_flow == [len(maps)] and len(maps) > 0


@pytest.mark.parametrize("target,spectral", [({"c": 1.0, "n": 3}, 16),
                                             ({"c": 0.0, "n": 4}, 16),
                                             ({"c": -1.0, "n": 3}, 17)])
def test_audit_deriv_count(tmp_path, monkeypatch, target, spectral):
    # spectral derivative arrays: d_a V and d_a^2 V of phi (for the induced
    # metric and the chain), tau, Delta tau and the Bochner check's |tau|^2,
    # from one rfft per axis each: 16.  The S^3 and R^4 tori's frames are
    # constant, so B takes no derivative; the H^3 tube torus's B takes
    # d_1(sqrt g G^{11}) only, as its sqrt g G^{00} depends on v alone, and
    # its roundoff G^{01} is dropped, so no field takes d_0 d_1 V.  The Kato
    # check takes grad |alpha| of two sections on its CentralFD2 twin
    kinds = record_derivs(monkeypatch)
    data = base_config(tmp_path / "audit", action="Audit")
    data["target"] = target
    data["grid"] = {"dims": 2, "sizes": [48, 48], "lengths": [TWO_PI, TWO_PI],
                    "differentiation": "Spectral"}
    data["initial_map"] = {"name": "TorusCliffordLike", "params": {}}
    assert run(parse_config(data)) == 0
    assert kinds.count("Spectral") == spectral
    assert kinds.count("CentralFD2") == 4
    assert len(kinds) == spectral + 4


def _kernel_configs(prefix) -> list:
    """Audits of the three TorusCliffordLike targets at 48^2, and criterion
    8's triharmonic flow."""
    configs = []
    for label, target in (("s3", {"c": 1.0, "n": 3}), ("r4", {"c": 0.0, "n": 4}),
                          ("h3", {"c": -1.0, "n": 3})):
        data = base_config(prefix / label, action="Audit")
        data["target"] = target
        data["grid"] = {"dims": 2, "sizes": [48, 48], "lengths": [TWO_PI, TWO_PI],
                        "differentiation": "Spectral"}
        data["initial_map"] = {"name": "TorusCliffordLike", "params": {}}
        configs.append(data)
    data = base_config(prefix / "tri", action="Flow")
    data["target"] = {"c": -1.0, "n": 2}
    data["grid"]["sizes"] = [256]
    data["initial_map"] = {"name": "PerturbedGeodesicH2",
                           "params": {"amplitude": 0.05, "k": 3}}
    data["flow"] = {"kind": "Triharmonic", "max_iters": 100000, "grad_tol": 1e-6,
                    "armijo_c": 1e-4, "shrink": 0.5,
                    "metric_policy": "FixedPrescribed"}
    return configs + [data]


def _run_kernel_configs(prefix) -> dict:
    prefix.mkdir()
    for data in _kernel_configs(prefix):
        assert run(parse_config(data)) == 0
    return {path.name: path.read_text().replace(str(prefix), "X")
            for path in sorted(prefix.iterdir())}


def test_outputs_equal_the_reference_kernels(tmp_path, monkeypatch):
    # the correctly rounded fast sum, the components-outermost derivatives
    # and the in-place projections change no byte against math.fsum,
    # C-ordered derivative copies and the plain expressions
    built = _run_kernel_configs(tmp_path / "built")
    deriv, deriv12 = domain_grid.DomainGrid.deriv, domain_grid.DomainGrid.deriv12

    def project_tangent(spec, x, v):
        if spec.model is sf.Model.FLAT:
            return np.asarray(v, dtype=float)
        return v - spec.c * sf.ambient_form(spec, x, v)[..., None] * x

    def curvature_op(spec, X, Y, Z):
        if spec.c == 0.0:
            return np.zeros(np.broadcast(X, Y, Z).shape)
        hYZ = sf.ambient_form(spec, Y, Z)[..., None]
        hXZ = sf.ambient_form(spec, X, Z)[..., None]
        return spec.c * (hYZ * X - hXZ * Y)

    monkeypatch.setattr(domain_grid, "exact_sum", lambda x: math.fsum(memoryview(x)))
    monkeypatch.setattr(domain_grid.DomainGrid, "deriv",
                        lambda *args, **kw: np.ascontiguousarray(deriv(*args, **kw)))
    monkeypatch.setattr(domain_grid.DomainGrid, "deriv12",
                        lambda *args, **kw: [np.ascontiguousarray(d)
                                             for d in deriv12(*args, **kw)])
    monkeypatch.setattr(sf, "project_tangent", project_tangent)
    monkeypatch.setattr(sf, "curvature_op", curvature_op)
    reference = _run_kernel_configs(tmp_path / "reference")
    assert len(built) == 5 and "tri_trace.csv" in built
    assert built == reference


def test_run_deterministic_outputs(tmp_path):
    # summaries and traces carry no timing: two runs write the same bytes
    a = parse_config(base_config(tmp_path / "a", action="Audit"))
    b = parse_config(base_config(tmp_path / "b", action="Audit"))
    assert run(a) == 0 and run(b) == 0
    sa = (tmp_path / "a_summary.json").read_text()
    sb = (tmp_path / "b_summary.json").read_text()
    assert sa.replace(str(tmp_path / "a"), "X") == sb.replace(str(tmp_path / "b"), "X")
    outputs = []
    for name in ("fa", "fb"):
        data = base_config(tmp_path / name, action="Flow")
        data["flow"] = {"kind": "Harmonic", "max_iters": 10}
        assert run(parse_config(data)) == 0
        outputs.append([(tmp_path / f"{name}_{kind}").read_text()
                        .replace(str(tmp_path / name), "X")
                        for kind in ("summary.json", "trace.csv")])
    assert outputs[0] == outputs[1]


def test_summary_floats_round_trip(tmp_path):
    prefix = tmp_path / "rt"
    run(parse_config(base_config(prefix)))
    summary = load_summary(tmp_path / "rt_summary.json")
    e2 = summary["energies"]["E2"]
    assert load_summary(json.dumps(e2)) == e2


def test_summary_is_written_in_one_call_as_json_dump_writes_it(tmp_path, monkeypatch):
    # cli.run writes a summary with one write call, and its bytes are those
    # json.dump's per-chunk writes give, on a Flow and an Audit summary
    writes = {}

    class CountingFile:
        def __init__(self, fh, path):
            self._fh, self._path = fh, str(path)

        def write(self, text):
            writes[self._path] = writes.get(self._path, 0) + 1
            return self._fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self._fh.__exit__(*exc)

    def counting_open(path, mode="r", *args, **kwargs):
        return CountingFile(open(path, mode, *args, **kwargs), path)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    flow = base_config(tmp_path / "flow", action="Flow")
    flow["target"] = {"c": -1.0, "n": 2}
    flow["initial_map"] = {"name": "PerturbedGeodesicH2",
                           "params": {"amplitude": 0.01, "k": 2}}
    flow["flow"] = {"kind": "Triharmonic", "max_iters": 5}
    audit = base_config(tmp_path / "audit", action="Audit")
    audit["target"] = {"c": 1.0, "n": 2}
    audit["initial_map"] = {"name": "GreatCircleS2", "params": {}}
    for data in (flow, audit):
        assert run(parse_config(data)) == 0
        path = Path(data["output_prefix"] + "_summary.json")
        assert writes[str(path)] == 1
        dumped = tmp_path / "dumped.json"
        with open(dumped, "w") as fh:
            json.dump(load_summary(path), fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert dumped.read_bytes() == path.read_bytes()


def test_summaries_are_strict_json(tmp_path):
    # NaN and Infinity are not JSON: every summary loads without them
    flow = base_config(tmp_path / "flow", action="Flow")
    flow["target"] = {"c": -1.0, "n": 2}
    flow["initial_map"] = {"name": "PerturbedGeodesicH2",
                           "params": {"amplitude": 0.01, "k": 2}}
    flow["flow"] = {"kind": "Triharmonic", "max_iters": 50}
    # the constant map's half-step residuals are exactly 0: no Richardson ratio
    constant = base_config(tmp_path / "va", action="VariationCheck")
    constant["target"] = {"c": -1.0, "n": 2}
    constant["initial_map"] = {"name": "PerturbedGeodesicH2",
                               "params": {"amplitude": 0.0, "k": 2}}
    runs = [base_config(tmp_path / "en"), base_config(tmp_path / "au", action="Audit"),
            flow, constant]
    for data in runs:
        assert run(parse_config(data)) == 0
        summary = load_summary(Path(data["output_prefix"] + "_summary.json"))
        assert summary["action"] == data["action"]
    checks = summary["variation"]["checks"].values()
    assert any(c["residual_half_t"] == 0.0 for c in checks)
    for c in checks:
        assert (c["richardson_ratio"] is None) == (c["residual_half_t"] == 0.0)


@pytest.mark.parametrize("action", ["Energies", "Audit", "VariationCheck"])
def test_run_nonfinite_map_exits_2(tmp_path, capsys, action):
    # cosh overflows for a hyperbolic circle of radius 800: its energies
    # would be NaN, so the run ends with a named error and writes nothing
    data = base_config(tmp_path / "nf", action=action)
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 800.0}}
    with pytest.warns(RuntimeWarning):
        assert main(["run", str(write_config(tmp_path, data))]) == 2
    assert "DegeneratePoint" in capsys.readouterr().err
    assert not (tmp_path / "nf_summary.json").exists()


def test_main_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, base_config(tmp_path / "m1"), "good.json")
    assert main(["run", str(good)]) == 0

    bad = write_config(tmp_path, {"target": {}}, "bad.json")
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2


@pytest.mark.parametrize("action", ["Energies", "Flow"])
def test_unwritable_output_prefix_exits_2_before_any_work(tmp_path, capsys,
                                                         monkeypatch, action):
    # the prefix's directory cannot be made under a file: the run stops with
    # exit 2, the code for an unusable input, before it frames or flows the map
    blocker = tmp_path / "file"
    blocker.write_text("")
    data = base_config(blocker / "out" / "x", action=action)
    if action == "Flow":
        data["flow"] = {"kind": "Biharmonic", "max_iters": 5}

    def work(*args, **kwargs):
        raise AssertionError("the run started its work")

    monkeypatch.setattr(cli, "run_flow", work)
    monkeypatch.setattr(cli, "orthonormal_frame", work)
    assert main(["run", str(write_config(tmp_path, data))]) == 2
    assert capsys.readouterr().err.startswith("cannot write outputs: ")
    assert blocker.read_text() == ""


def test_main_examples(capsys):
    assert main(["examples"]) == 0
    catalog = load_summary(capsys.readouterr().out)
    assert "Circle" in catalog


def test_unknown_example_is_config_error(tmp_path):
    data = base_config(tmp_path / "u")
    data["initial_map"] = {"name": "Wormhole", "params": {}}
    path = write_config(tmp_path, data, "u.json")
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("action", ["Audit", "VariationCheck", "Energies"])
def test_failing_checks_are_listed_on_stderr(tmp_path, capsys, monkeypatch, action):
    # each failing check is named once, in order; a skipped audit check, or
    # an action without checks, prints nothing and exits 0
    def audit(chain, seed):
        return AuditReport({c.name: c for c in (
            AuditCheck("a", 1.0, 1, 0.0, False), AuditCheck("b", 0.0, 0, 0.0, True),
            AuditCheck("c", 0.0, 0, 0.0, False, skipped=True),
            AuditCheck("d", 1.0, 1, 0.0, False))})

    def variation(chain, seed):
        checks = {name: {"pass": ok} for name, ok in (
            ("energy_order_1", True), ("energy_order_2", False),
            ("energy_order_3", True), ("tension_variation", False))}
        return {"t": 1e-3, "checks": checks}

    monkeypatch.setattr(cli, "pointwise_identity_audit", audit)
    monkeypatch.setattr(cli, "_variation_results", variation)
    code = run(parse_config(base_config(tmp_path / "out", action=action)))
    expected = {"Audit": "audit failed: a, d\n",
                "VariationCheck": "variation check failed: energy_order_2, "
                                  "tension_variation\n",
                "Energies": ""}[action]
    assert capsys.readouterr().err == expected
    assert code == (1 if expected else 0)
    if action == "VariationCheck":  # the summary's verdict reads the same rule
        assert load_summary(tmp_path / "out_summary.json")["variation"]["pass"] is False
