"""Energy ladder values, scaling, and inequalities."""

import numpy as np
import pytest

import polyflow as pf
from polyflow.errors import DegenerateImmersion

from conftest import build_fixture, builtin_fixture_set, chain_for, frame_for

TWO_PI = 2 * np.pi


def test_circle_energy_values(flat_circle):
    rep = pf.energy_report(chain_for(flat_circle), p_list=(2.0, 4.0))
    assert rep.E2 == pytest.approx(np.pi, abs=1e-12)
    assert rep.E3 == pytest.approx(np.pi, abs=1e-12)
    assert rep.Etilde4 == pytest.approx(np.pi, abs=1e-12)
    assert rep.Lp_tension[4.0] == pytest.approx(TWO_PI, abs=1e-12)
    assert rep.sup_tau == pytest.approx(1.0, abs=1e-12)
    assert rep.volume == pytest.approx(TWO_PI, abs=1e-12)
    assert rep.mean_curvature_sup == pytest.approx(1.0, abs=1e-12)


def test_geodesic_energies(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    rep = pf.energy_report(chain_for(phi))
    assert rep.E2 <= 1e-20
    assert rep.E3 <= 1e-20
    assert rep.Etilde4 <= 1e-20
    assert rep.E == pytest.approx(0.5 * rep.volume, rel=1e-10)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_energy_scaling_law(r):
    grid = pf.build_grid(pf.GridSpec(1, (256,), (TWO_PI * r,)))
    phi = pf.builtin_map("Circle", {"r": r}, grid, pf.SpaceFormSpec(0.0, 2))
    rep = pf.energy_report(chain_for(phi), p_list=(4.0,))
    assert rep.E2 == pytest.approx(np.pi / r, rel=1e-12)
    assert rep.E3 == pytest.approx(np.pi / r**3, rel=1e-12)
    assert rep.Etilde4 == pytest.approx(np.pi / r**5, rel=1e-12)


def test_circle_r2_bienergy():
    grid = pf.build_grid(pf.GridSpec(1, (256,), (2 * TWO_PI,)))
    phi = pf.builtin_map("Circle", {"r": 2.0}, grid, pf.SpaceFormSpec(0.0, 2))
    rep = pf.energy_report(chain_for(phi))
    assert rep.E2 == pytest.approx(np.pi / 2, rel=1e-12)


def test_isometric_dirichlet_energy(torus_grid):
    phi = pf.builtin_map("TorusCliffordLike", {}, torus_grid,
                         pf.SpaceFormSpec(-1.0, 3))
    rep = pf.energy_report(chain_for(phi))
    assert rep.E == pytest.approx(0.5 * 2 * rep.volume, rel=1e-8)


@pytest.mark.parametrize("name,params,grid_args,target", builtin_fixture_set())
def test_holder_and_nonnegativity(name, params, grid_args, target):
    phi = build_fixture(name, params, grid_args, target)
    try:
        frame = frame_for(phi)
    except DegenerateImmersion:
        frame = frame_for(phi, induced=False)
    rep = pf.energy_report(pf.TensionChain(phi, frame), p_list=(4.0,))
    for value in (rep.E, rep.E2, rep.E3, rep.Etilde4, rep.Lp_tension[4.0]):
        assert value >= 0.0
    holder = 0.5 * np.sqrt(rep.volume) * np.sqrt(rep.Lp_tension[4.0])
    assert rep.E2 <= holder + 1e-12


def test_energy_k_matches_report(flat_circle):
    chain = chain_for(flat_circle)
    rep = pf.energy_report(pf.TensionChain(flat_circle, chain.frame))
    assert chain.energy(1) == pytest.approx(rep.E, abs=1e-14)
    assert chain.energy(2) == pytest.approx(rep.E2, abs=1e-14)
    assert chain.energy(3) == pytest.approx(rep.E3, abs=1e-14)
    with pytest.raises(ValueError):
        chain.energy(4)
