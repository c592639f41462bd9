"""The benchmark's correctness gate, applied in the test suite.

``flow_tri_1d`` stops criterion 8's flow at grad_tol 33 and compares the
final E3 with a recorded reference within ``TRI_E3_RTOL``.  A large-step
flow lands near that edge, so every input variant is checked here with the
benchmark's own ``observe`` and ``check``, against its unchanged reference
file, before a benchmark run would reject the change.
"""

import importlib.util
from pathlib import Path

import pytest

from polyflow.cli import parse_config, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
