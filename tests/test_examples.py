"""Built-in map families."""

import numpy as np
import pytest

import polyflow as pf
from polyflow.errors import BadParams, UnknownExample

from conftest import build_fixture, builtin_fixture_set

TWO_PI = 2 * np.pi


def test_catalog_lists_all():
    catalog = pf.example_catalog()
    assert set(catalog) == {
        "Circle",
        "PerturbedGeodesicH2",
        "GreatCircleS2",
        "TorusCliffordLike",
        "GraphSurface",
    }
    for entry in catalog.values():
        assert {"description", "dims", "models", "params"} <= set(entry)


def test_circle_flat_values(circle_grid, flat_circle):
    s = circle_grid.axes[0]
    expected = np.stack([np.cos(s), np.sin(s)], axis=-1)
    np.testing.assert_allclose(flat_circle.values, expected, atol=1e-15)


def test_great_circle_is_equator(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    assert np.max(np.abs(phi.values[..., 2])) == 0.0
    assert phi.constraint_residual() <= 1e-14


def test_perturbed_geodesic_amplitude_zero_is_constant(circle_grid):
    phi = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.0, "k": 3},
                         circle_grid, pf.SpaceFormSpec(-1.0, 2))
    np.testing.assert_array_equal(phi.values, np.broadcast_to(
        [1.0, 0.0, 0.0], phi.values.shape))


def test_perturbed_geodesic_oscillates_along_line(circle_grid):
    phi = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.05, "k": 3},
                         circle_grid, pf.SpaceFormSpec(-1.0, 2))
    # image inside the x1 = 0 geodesic plane
    assert np.max(np.abs(phi.values[..., 1])) <= 1e-15
    assert phi.constraint_residual() <= 1e-12


@pytest.mark.parametrize("name,params,grid_args,target", builtin_fixture_set())
def test_builtins_on_model(name, params, grid_args, target):
    phi = build_fixture(name, params, grid_args, target)
    assert phi.constraint_residual() <= 1e-10
    assert np.all(np.isfinite(phi.values))


def test_builtins_deterministic(torus_grid):
    spec = pf.SpaceFormSpec(-1.0, 3)
    a = pf.builtin_map("TorusCliffordLike", {}, torus_grid, spec)
    b = pf.builtin_map("TorusCliffordLike", {}, torus_grid, spec)
    np.testing.assert_array_equal(a.values, b.values)


def test_unknown_example(circle_grid):
    with pytest.raises(UnknownExample):
        pf.builtin_map("Helix", {}, circle_grid, pf.SpaceFormSpec(0.0, 2))


def test_bad_params(circle_grid, torus_grid):
    flat2 = pf.SpaceFormSpec(0.0, 2)
    with pytest.raises(BadParams):
        pf.builtin_map("Circle", {"radius": 1.0}, circle_grid, flat2)
    with pytest.raises(BadParams):
        pf.builtin_map("Circle", {"r": -1.0}, circle_grid, flat2)
    with pytest.raises(BadParams):
        pf.builtin_map("Circle", {}, torus_grid, flat2)  # needs a 1-d grid
    with pytest.raises(BadParams):
        pf.builtin_map("GreatCircleS2", {}, circle_grid, flat2)
    with pytest.raises(BadParams):
        pf.builtin_map("PerturbedGeodesicH2", {}, circle_grid,
                       pf.SpaceFormSpec(1.0, 2))
    with pytest.raises(BadParams):
        pf.builtin_map("TorusCliffordLike", {"a": 0.3, "rho": 0.4}, torus_grid,
                       pf.SpaceFormSpec(-1.0, 3))  # tube wider than core
    with pytest.raises(BadParams):
        pf.builtin_map("GraphSurface", {}, torus_grid, pf.SpaceFormSpec(1.0, 3))


MODEL_CURVATURE = {"Flat": 0.0, "Sphere": 1.0, "Hyperboloid": -1.0}


@pytest.mark.parametrize("name", sorted(pf.example_catalog()))
def test_family_domain_checked(name, circle_grid, torus_grid):
    family = pf.example_catalog()[name]
    grids = {1: circle_grid, 2: torus_grid}
    spec = pf.SpaceFormSpec(MODEL_CURVATURE[family["models"][0]], 3)
    with pytest.raises(BadParams, match="-d grid"):
        pf.builtin_map(name, {}, grids[3 - family["dims"]], spec)
    for model in sorted(set(MODEL_CURVATURE) - set(family["models"])):
        with pytest.raises(BadParams, match="needs a target in"):
            pf.builtin_map(name, {}, grids[family["dims"]],
                           pf.SpaceFormSpec(MODEL_CURVATURE[model], 3))


def test_graph_surface_heights(torus_grid):
    phi = pf.builtin_map("GraphSurface", {"amplitude": 0.2, "ku": 2, "kv": 1},
                         torus_grid, pf.SpaceFormSpec(0.0, 5))
    u, v = torus_grid.coords
    np.testing.assert_allclose(phi.values[..., 4],
                               0.2 * np.sin(2 * u) * np.cos(v), atol=1e-15)


def test_curved_circle_scaling():
    # geodesic radius r on a sphere of curvature 4 (radius 1/2)
    grid = pf.build_grid(pf.GridSpec(1, (64,), (TWO_PI,)))
    spec = pf.SpaceFormSpec(4.0, 2)
    phi = pf.builtin_map("Circle", {"r": 0.5}, grid, spec)
    assert phi.constraint_residual() <= 1e-14
    # colatitude = r / R = 1 on the radius-1/2 sphere
    np.testing.assert_allclose(phi.values[..., 2], 0.5 * np.cos(1.0), atol=1e-14)
