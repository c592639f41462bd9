"""The benchmark's correctness gate, applied in the test suite.

``flow_tri_1d`` stops criterion 8's flow at grad_tol 33 and compares the
final E3 with a recorded reference within ``TRI_E3_RTOL``.  A large-step
flow lands near that edge, so every input variant is checked here with the
benchmark's own ``observe`` and ``check``, against its unchanged reference
file, before a benchmark run would reject the change.  One traced worker run
per timed workload checks that the names the benchmark's per-layer report
reads still exist.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyflow.cli import parse_config, run

from conftest import load_summary

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Traced functions that perfbench/run.py's per-layer report reads without a
# default: renaming one in src/ makes every traced benchmark run fail.
PER_LAYER_READS = ("domain_grid.deriv", "pullback.tension", "flow.flow_step",
                   "flow.run_flow")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
REFERENCE = workloads.load_reference()


@pytest.mark.parametrize("seed", range(workloads.VARIANTS))
def test_flow_tri_1d_variant_passes_the_gate(tmp_path, seed):
    (label, cfg), = workloads.configs("flow_tri_1d", seed, f"{tmp_path}/")
    obs = workloads.observe("flow_tri_1d", label, cfg, run(parse_config(cfg)))
    ref = workloads.reference_for(REFERENCE, "flow_tri_1d", seed, label)
    assert workloads.check("flow_tri_1d", label, cfg, obs, ref) == []


@pytest.mark.parametrize("workload", ["flow_tri_1d", "audit_2d"])
def test_traced_worker_reports_what_per_layer_reads(tmp_path, workload):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "0", "--out", str(tmp_path), "--trace"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    result = load_summary(proc.stdout.splitlines()[-1])
    assert result["ops"] and all(op["exit_code"] == 0 for op in result["ops"])
    assert set(PER_LAYER_READS) <= set(result["functions"])
