"""Config parsing, experiment runner, output formats, exit codes."""

import json

import numpy as np
import pytest

from polyflow.cli import load_config, main, parse_config, run
from polyflow.errors import ConfigError

TWO_PI = 2 * np.pi


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


def test_parse_rejects_bad_p(tmp_path):
    data = base_config(tmp_path / "out")
    data["p_list"] = [0.5]
    with pytest.raises(ConfigError):
        parse_config(data)


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
    assert trace_lines[0] == "iter,E,E2,E3,Etilde4,L4_tension,sup_tau,sup_descent,dt"
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


def test_main_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, base_config(tmp_path / "m1"), "good.json")
    assert main(["run", str(good)]) == 0

    bad = write_config(tmp_path, {"target": {}}, "bad.json")
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2


def test_main_audit_overrides_action(tmp_path):
    cfg = base_config(tmp_path / "aud", action="Energies")
    path = write_config(tmp_path, cfg, "aud.json")
    assert main(["audit", str(path)]) == 0
    summary = json.loads((tmp_path / "aud_summary.json").read_text())
    assert summary["action"] == "Audit"


def test_main_examples(capsys):
    assert main(["examples"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert "Circle" in catalog


def test_unknown_example_is_config_error(tmp_path):
    data = base_config(tmp_path / "u")
    data["initial_map"] = {"name": "Wormhole", "params": {}}
    path = write_config(tmp_path, data, "u.json")
    assert main(["run", str(path)]) == 2
