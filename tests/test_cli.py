"""Config parsing, experiment runner, output formats, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from polyflow.cli import load_config, main, parse_config, run
from polyflow.errors import ConfigError
from polyflow.flow import FlowConfig, FlowTrace

TWO_PI = 2 * np.pi
TRACE_HEADER = "iter,E,E2,E3,Etilde4,L4_tension,sup_tau,sup_descent,dt,dt_cap"


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


def test_trace_header_is_the_column_list():
    assert ",".join(FlowTrace.COLUMNS) == TRACE_HEADER
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert TRACE_HEADER in readme.read_text()


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_run_energies(tmp_path):
    prefix = tmp_path / "out" / "circle"
    config = parse_config(base_config(prefix))
    assert run(config) == 0
    summary = json.loads((tmp_path / "out" / "circle_summary.json").read_text())
    assert summary["action"] == "Energies"
    assert summary["energies"]["E2"] == pytest.approx(np.pi, abs=1e-10)
    assert summary["metric_mode"] == "Induced"


def test_run_audit_geodesic(tmp_path):
    prefix = tmp_path / "geo"
    data = base_config(prefix, action="Audit")
    data["target"] = {"c": 1.0, "n": 2}
    data["initial_map"] = {"name": "GreatCircleS2", "params": {}}
    assert run(parse_config(data)) == 0
    summary = json.loads((tmp_path / "geo_summary.json").read_text())
    assert all(c["pass"] or c["skipped"] for c in summary["audit"].values())


def test_run_variation_check(tmp_path):
    prefix = tmp_path / "var"
    data = base_config(prefix, action="VariationCheck")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 0.8}}
    data["grid"]["sizes"] = [128]
    assert run(parse_config(data)) == 0
    summary = json.loads((tmp_path / "var_summary.json").read_text())
    assert summary["variation"]["pass"]
    assert set(summary["variation"]["checks"]) == {
        "energy_order_1",
        "energy_order_2",
        "energy_order_3",
        "tension_variation",
    }


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
    summary = json.loads((tmp_path / "flow" / "h2_summary.json").read_text())
    assert summary["flow"]["status"] == "converged"
    assert summary["probe"]["classification"] == "minimal"


def test_run_flow_degenerate_writes_outputs(tmp_path):
    prefix = tmp_path / "deg"
    data = base_config(prefix, action="Flow")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "Circle", "params": {"r": 0.3}}
    data["flow"] = {"kind": "Harmonic", "max_iters": 50, "grad_tol": 1e-8,
                    "metric_policy": "ReInduceEachStep"}
    assert run(parse_config(data)) == 0
    summary = json.loads((tmp_path / "deg_summary.json").read_text())
    assert summary["flow"]["status"] == "degenerate"
    trace_lines = (tmp_path / "deg_trace.csv").read_text().splitlines()
    assert len(trace_lines) == summary["flow"]["iterations"] + 2
    assert trace_lines[-1].startswith(f"{summary['flow']['iterations']},")


def test_run_flow_degenerate_at_step_0_writes_outputs(tmp_path):
    # the initial map does not immerse, so ReInduceEachStep has no frame
    # for step 0: the flow enters no state and nothing is probed
    data = base_config(tmp_path / "deg0", action="Flow")
    data["target"] = {"c": -1.0, "n": 2}
    data["initial_map"] = {"name": "PerturbedGeodesicH2",
                           "params": {"amplitude": 0.05, "k": 3}}
    data["flow"] = {"kind": "Triharmonic", "metric_policy": "ReInduceEachStep"}
    assert main(["run", str(write_config(tmp_path, data))]) == 0
    trace_lines = (tmp_path / "deg0_trace.csv").read_text().splitlines()
    assert trace_lines == [TRACE_HEADER]
    summary = json.loads((tmp_path / "deg0_summary.json").read_text())
    assert summary["flow"] == {"status": "degenerate", "iterations": 0}
    assert any("ReInduceEachStep" in note for note in summary["notes"])
    assert "probe" not in summary and "energies" not in summary


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
    summary = json.loads((tmp_path / "nf_summary.json").read_text())
    assert summary["flow"] == {"status": "nonfinite", "iterations": 0}
    assert any("not finite" in note for note in summary["notes"])
    assert "probe" not in summary and "energies" not in summary


def test_run_deterministic_outputs(tmp_path):
    a = parse_config(base_config(tmp_path / "a", action="Audit"))
    b = parse_config(base_config(tmp_path / "b", action="Audit"))
    assert run(a) == 0 and run(b) == 0
    sa = (tmp_path / "a_summary.json").read_text()
    sb = (tmp_path / "b_summary.json").read_text()
    assert sa.replace(str(tmp_path / "a"), "X") == sb.replace(str(tmp_path / "b"), "X")


def test_summary_floats_round_trip(tmp_path):
    prefix = tmp_path / "rt"
    run(parse_config(base_config(prefix)))
    summary = json.loads((tmp_path / "rt_summary.json").read_text())
    e2 = summary["energies"]["E2"]
    assert json.loads(json.dumps(e2)) == e2


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


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
        summary = _strict_json(Path(data["output_prefix"] + "_summary.json"))
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


def test_main_examples(capsys):
    assert main(["examples"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert "Circle" in catalog


def test_unknown_example_is_config_error(tmp_path):
    data = base_config(tmp_path / "u")
    data["initial_map"] = {"name": "Wormhole", "params": {}}
    path = write_config(tmp_path, data, "u.json")
    assert main(["run", str(path)]) == 2
