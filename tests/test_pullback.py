"""Operator stack: differential, connection, Laplacians, tension fields,
all read from one TensionChain per state."""

import struct

import numpy as np
import pytest

import polyflow as pf
from polyflow import domain_grid
from polyflow import space_form as sf
from polyflow.domain_grid import DomainGrid, laplace_beltrami
from polyflow.errors import DegenerateImmersion, NotIsometric
from polyflow.flow import _trace_metrics
from polyflow.pullback import TensionChain, tritension_space_form

from conftest import (build_fixture, builtin_fixture_set, chain_for, components_outermost,
                      frame_arrays, frame_for, record_derivs, tangency_residual,
                      warped_metric)

TWO_PI = 2 * np.pi


def arc_length_circle(r, n=256):
    """Circle of radius r, arc-length parametrized: domain length 2*pi*r."""
    grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI * r,)))
    return pf.builtin_map("Circle", {"r": r}, grid, pf.SpaceFormSpec(0.0, 2))


def test_differential_circle(flat_circle):
    frame = frame_for(flat_circle)
    (d,) = TensionChain(flat_circle, frame).dphi
    s = flat_circle.grid.coords[0]
    expected = np.stack([-np.sin(s), np.cos(s)], axis=-1)
    assert np.max(np.abs(d - expected)) <= 1e-12


def test_differential_constant_map(circle_grid):
    spec = pf.SpaceFormSpec(0.0, 2)
    values = np.broadcast_to([1.5, -0.5], circle_grid.shape + (2,)).copy()
    phi = pf.MapField(values=values, grid=circle_grid, spec=spec)
    frame = frame_for(phi, induced=False)
    (d,) = TensionChain(phi, frame).dphi
    assert np.max(np.abs(d)) == 0.0


def test_differential_isometric_norm(torus_grid):
    phi = build_fixture("TorusCliffordLike", {}, (2, (64, 64), (TWO_PI, TWO_PI)),
                        pf.SpaceFormSpec(1.0, 3))
    frame = frame_for(phi)
    total = np.zeros(phi.grid.shape)
    for d in TensionChain(phi, frame).dphi:
        total += sf.ambient_form(phi.spec, d, d)
    np.testing.assert_allclose(total, 2.0, atol=1e-10)


def test_nabla_bar_circle_tension(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    (grad,) = chain.nabla(chain.tau)
    s = flat_circle.grid.coords[0]
    expected = np.stack([np.sin(s), -np.cos(s)], axis=-1)
    assert np.max(np.abs(grad - expected)) <= 1e-12


def test_nabla_bar_parallel_normal_field(circle_grid):
    # the unit normal of the equatorial plane is parallel along the equator
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi)
    normal = np.zeros(circle_grid.shape + (3,))
    normal[..., 2] = 1.0
    (grad,) = TensionChain(phi, frame).nabla(normal)
    assert np.max(np.abs(grad)) <= 1e-14


def test_nabla_bar_sine_field(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi)
    s = circle_grid.coords[0]
    V = np.sin(s)[..., None] * np.array([0.0, 0.0, 1.0])
    (grad,) = TensionChain(phi, frame).nabla(V)
    expected = np.cos(s)[..., None] * np.array([0.0, 0.0, 1.0])
    assert np.max(np.abs(grad - expected)) <= 1e-12


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_tension_circle_closed_form(r):
    phi = arc_length_circle(r)
    frame = frame_for(phi)
    tau = pf.tension(phi, frame)
    s = phi.grid.coords[0]
    expected = -(1.0 / r) * np.stack([np.cos(s / r), np.sin(s / r)], axis=-1)
    assert np.max(np.abs(tau - expected)) <= 1e-10
    assert np.max(np.abs(sf.norm(phi.spec, tau) - 1.0 / r)) <= 1e-10


def test_tension_geodesic_vanishes(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    tau = pf.tension(phi, frame_for(phi))
    assert np.max(sf.norm(phi.spec, tau)) <= 1e-13


def test_tension_small_circle_geodesic_curvature(circle_grid):
    # independent oracle: a circle at colatitude t on the unit sphere has
    # |tau| = cot(t)
    t0 = np.pi / 3
    phi = pf.builtin_map("Circle", {"r": t0}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    tau = pf.tension(phi, frame_for(phi))
    assert np.max(np.abs(sf.norm(phi.spec, tau) - 1.0 / np.tan(t0))) <= 1e-12


def test_tension_hyperbolic_circle_geodesic_curvature(circle_grid):
    # independent oracle: |tau| = coth(rho) for the hyperbolic circle
    rho = 0.7
    phi = pf.builtin_map("Circle", {"r": rho}, circle_grid, pf.SpaceFormSpec(-1.0, 2))
    tau = pf.tension(phi, frame_for(phi))
    assert np.max(np.abs(sf.norm(phi.spec, tau) - 1.0 / np.tanh(rho))) <= 1e-12


def test_tension_clifford_torus(torus_grid):
    # independent oracle: |tau| = 2 cot(2 alpha), minimal at alpha = pi/4
    alpha = np.pi / 5
    phi = pf.builtin_map("TorusCliffordLike", {"alpha": alpha}, torus_grid,
                         pf.SpaceFormSpec(1.0, 3))
    tau = pf.tension(phi, frame_for(phi))
    assert np.max(np.abs(sf.norm(phi.spec, tau) - 2.0 / np.tan(2 * alpha))) <= 1e-10
    phi_min = pf.builtin_map("TorusCliffordLike", {"alpha": np.pi / 4}, torus_grid,
                             pf.SpaceFormSpec(1.0, 3))
    tau_min = pf.tension(phi_min, frame_for(phi_min))
    assert np.max(sf.norm(phi.spec, tau_min)) <= 1e-12


def test_tension_flat_product_torus(torus_grid):
    phi = pf.builtin_map("TorusCliffordLike", {"r1": 1.0, "r2": 0.7}, torus_grid,
                         pf.SpaceFormSpec(0.0, 4))
    tau = pf.tension(phi, frame_for(phi))
    expected = np.sqrt(1.0 + 1.0 / 0.49)
    assert np.max(np.abs(sf.norm(phi.spec, tau) - expected)) <= 1e-10


def test_rough_laplacian_circle(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    tau, lap = chain.tau, chain.lap_tau
    assert np.max(np.abs(lap - tau)) <= 1e-12


def test_rough_laplacian_circle_r2():
    phi = arc_length_circle(2.0)
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    tau, lap = chain.tau, chain.lap_tau
    assert np.max(np.abs(lap - 0.25 * tau)) <= 1e-12
    assert np.max(np.abs(sf.norm(phi.spec, lap) - 0.125)) <= 1e-12


def test_rough_laplacian_constant_field(circle_grid, flat_circle):
    frame = frame_for(flat_circle, induced=False)
    V = np.broadcast_to([0.2, 0.1], circle_grid.shape + (2,)).copy()
    lap = TensionChain(flat_circle, frame).laplacian(V)
    assert np.max(np.abs(lap)) == 0.0


def test_rough_laplacian_eigenfield(circle_grid, flat_circle):
    frame = frame_for(flat_circle, induced=False)
    s = circle_grid.coords[0]
    V = np.stack([np.sin(s), np.zeros_like(s)], -1)
    lap = TensionChain(flat_circle, frame).laplacian(V)
    assert np.max(np.abs(lap - V)) <= 1e-12


def test_iterated_laplacian(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    for out in (chain.lap_tau, chain.laplacian(chain.lap_tau)):
        assert np.max(np.abs(out - chain.tau)) <= 1e-11


def _curvature_contraction(chain, V):
    """sum_i R(V, dphi(e_i)) dphi(e_i) = Delta V - J(V)."""
    return chain.laplacian(V) - chain.jacobi(V)


def test_curvature_contraction_flat(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    out = _curvature_contraction(chain, chain.tau)
    assert np.max(np.abs(out)) == 0.0


def test_curvature_contraction_normal_section(circle_grid):
    # for V normal to the image of an isometric immersion the contraction
    # collapses to c * dims * V (space-form tensor, h(V, dphi) = 0)
    phi = pf.builtin_map("Circle", {"r": 0.8}, circle_grid, pf.SpaceFormSpec(-1.0, 2))
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    tau = chain.tau
    V = tau / sf.norm(phi.spec, tau)[..., None]
    out = _curvature_contraction(chain, V)
    assert np.max(np.abs(out - phi.spec.c * 1 * V)) <= 1e-12


def test_curvature_contraction_tangent_line(circle_grid):
    # dims = 1 and V = dphi(e1): R(V, V)V = 0
    phi = pf.builtin_map("Circle", {"r": 0.5}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    (d,) = chain.dphi
    out = _curvature_contraction(chain, d)
    assert np.max(sf.norm(phi.spec, out)) <= 1e-13


def test_jacobi_flat_is_laplacian(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    tau = chain.tau
    jac = chain.jacobi(tau)
    lap = chain.laplacian(tau)
    assert np.max(np.abs(jac - lap)) == 0.0
    assert np.max(np.abs(jac - tau)) <= 1e-12


def test_jacobi_zero_section(flat_circle):
    frame = frame_for(flat_circle)
    V = np.zeros_like(flat_circle.values)
    assert np.max(np.abs(TensionChain(flat_circle, frame).jacobi(V))) == 0.0


def test_bitension_circle(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    tau2, tau = chain.tau2, chain.tau
    assert np.max(np.abs(tau2 - tau)) <= 1e-11
    assert np.max(np.abs(sf.norm(flat_circle.spec, tau2) - 1.0)) <= 1e-11


def test_bitension_scaling():
    phi = arc_length_circle(2.0)
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    tau2, tau = chain.tau2, chain.tau
    assert np.max(np.abs(tau2 - 0.25 * tau)) <= 1e-12


def test_harmonic_chain_geodesic(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    assert np.max(sf.norm(phi.spec, chain.tau)) <= 1e-13
    assert np.max(sf.norm(phi.spec, chain.tau2)) <= 1e-12
    assert np.max(sf.norm(phi.spec, chain.tau3)) <= 1e-9


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_tritension_circle_scaling_law(r):
    # |tau| = 1/r, |lap tau| = 1/r^3, |tau3| = 1/r^5 for arc-length circles
    phi = arc_length_circle(r)
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    tau, lap, tau3 = chain.tau, chain.lap_tau, chain.tau3
    assert np.max(np.abs(sf.norm(phi.spec, tau) - r**-1)) <= 1e-10 * r**-1
    assert np.max(np.abs(sf.norm(phi.spec, lap) - r**-3)) <= 1e-9 * r**-3
    assert np.max(np.abs(sf.norm(phi.spec, tau3) - r**-5)) <= 1e-9 * r**-5


def test_tritension_circle_scaling_fd2_converges():
    errs = []
    for n in (128, 256):
        grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI,), "CentralFD2"))
        phi = pf.builtin_map("Circle", {"r": 1.0}, grid, pf.SpaceFormSpec(0.0, 2))
        frame = pf.orthonormal_frame(grid, pf.identity_metric(grid))
        tau3 = TensionChain(phi, frame).tau3
        errs.append(np.max(np.abs(sf.norm(phi.spec, tau3) - 1.0)))
    order = np.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3


def test_tritension_flat_equals_iterated_laplacian(torus_grid):
    phi = pf.builtin_map("GraphSurface", {}, torus_grid, pf.SpaceFormSpec(0.0, 5))
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    lap2 = chain.laplacian(chain.laplacian(chain.tau))
    assert np.max(np.abs(chain.tau3 - lap2)) == 0.0


# Maps x = sum_j rho_j n_j(theta_j) + const, n_j the unit circle of node
# axis j in the ambient coordinates (k_j, k_j + 1): (map, params, target,
# node counts, [(k_j, rho_j)]).  On the induced frame LB x = -sum_j n_j / rho_j,
# so tau = -sum_j n_j / rho_j + c m x.  The curved ones are hypersurfaces
# with a parallel shape operator A, |A|^2 = sum_j (1/rho_j^2 - c), where
# tau2 = (|A|^2 - c m) tau, tau3 = (|A|^2 (|A|^2 - c m) - c |tau|^2) tau and
# |nabla tau|^2 = |A|^2 |tau|^2; the circles (m = 1) read
# tau3 = kappa^2 (kappa^2 - 2c) tau, zero at sin r = 1/sqrt(3).  On a flat
# target every rung scales each n_j by 1/rho_j^2, and
# |nabla tau|^2 = sum_j rho_j^-4.  Delta tau is tau2 + c m tau, so
# |Delta tau|^2 = |A|^4 |tau|^2 on the curved ones and sum_j rho_j^-6 on a
# flat target.  The area is prod_j 2 pi rho_j.
ORACLE_CASES = (
    [("Circle", {"r": 0.7}, pf.SpaceFormSpec(0.0, 2), (128,), [(0, 0.7)])]
    + [("Circle", {"r": r}, pf.SpaceFormSpec(1.0, 2), (128,), [(0, np.sin(r))])
       for r in (0.9, np.arcsin(1 / np.sqrt(3)), np.pi / 4)]
    + [("Circle", {"r": r}, pf.SpaceFormSpec(-1.0, 2), (128,), [(1, np.sinh(r))])
       for r in (0.3, 0.7)]
    + [("TorusCliffordLike", {"alpha": np.pi / 5}, pf.SpaceFormSpec(1.0, 3), (n, n),
        [(0, np.cos(np.pi / 5)), (2, np.sin(np.pi / 5))]) for n in (32, 64, 128, 256)]
    + [("TorusCliffordLike", {"r1": 1.0, "r2": 0.7}, pf.SpaceFormSpec(0.0, 4), (n, n),
        [(0, 1.0), (2, 0.7)]) for n in (32, 64, 128, 256)]
)


def _oracle_rungs(phi, blocks):
    """Closed-form tau, tau2, tau3 and E2, E3, Etilde4 of an ``ORACLE_CASES`` map."""
    spec, m = phi.spec, phi.grid.dims
    units = []
    for theta, (k, rho) in zip(phi.grid.angles, blocks):
        n = np.zeros(phi.values.shape)
        n[..., k], n[..., k + 1] = np.cos(theta), np.sin(theta)
        units.append((n, rho))
    tau = sum(-n / rho for n, rho in units) + spec.c * m * phi.values
    tau_sq = sf.ambient_form(spec, tau, tau)[..., None]
    if spec.c == 0.0:
        rungs = [sum(-n / rho ** (2 * k - 1) for n, rho in units) for k in (1, 2, 3)]
        grad_sq = sum(rho**-4.0 for _, rho in units)
        lap_sq = sum(rho**-6.0 for _, rho in units)
    else:
        a_sq = sum(rho**-2.0 - spec.c for _, rho in units)
        rungs = [tau, (a_sq - spec.c * m) * tau,
                 (a_sq * (a_sq - spec.c * m) - spec.c * tau_sq) * tau]
        grad_sq = a_sq * tau_sq
        lap_sq = a_sq**2 * tau_sq
    area = np.prod([TWO_PI * rho for _, rho in units])
    return rungs, [0.5 * float(np.mean(sq)) * area for sq in (tau_sq, grad_sq, lap_sq)]


def test_every_rung_matches_its_closed_form():
    # node by node, each rung relative to its largest component (to tau's
    # where the rung vanishes: tau2 at sin r = 1/sqrt(2), tau3 at 1/sqrt(3)),
    # and E2, E3, Etilde4 as integrals, on the induced frame of each Spectral
    # grid
    worst = {"tau": 0.0, "tau2": 0.0, "tau3": 0.0, "E2": 0.0, "E3": 0.0, "Etilde4": 0.0}
    for name, params, target, sizes, blocks in ORACLE_CASES:
        dims = len(sizes)
        phi = build_fixture(name, params, (dims, sizes, (TWO_PI,) * dims), target)
        chain = chain_for(phi)
        rungs, energies = _oracle_rungs(phi, blocks)
        tau_scale = np.max(np.abs(rungs[0]))
        for k, exact in enumerate(rungs, start=1):
            scale = max(np.max(np.abs(exact)), tau_scale)
            err = np.max(np.abs(chain.field(k) - exact)) / scale
            key = ("tau", "tau2", "tau3")[k - 1]
            assert err <= 1e-13, (name, target, sizes, key, err)
            worst[key] = max(worst[key], err)
        got = (chain.energy(2), chain.energy(3), chain.etilde4)
        for key, value, exact in zip(("E2", "E3", "Etilde4"), got, energies):
            err = abs(value - exact) / exact
            assert err <= 1e-13, (name, target, sizes, key, err)
            worst[key] = max(worst[key], err)
    print(f"[oracle] {len(ORACLE_CASES)} maps (circles in R^2, S^2, H^2; S^3 and "
          f"R^4 tori at 32^2-256^2) against their closed forms, worst relative "
          f"error: " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


AGREEMENT_FIXTURES = [
    ("Circle", {"r": 1.0}, (1, (256,), (TWO_PI,)), pf.SpaceFormSpec(0.0, 2)),
    ("Circle", {"r": 2.0}, (1, (256,), (2 * TWO_PI,)), pf.SpaceFormSpec(0.0, 2)),
    ("TorusCliffordLike", {"r1": 1.0, "r2": 0.7}, (2, (64, 64), (TWO_PI, TWO_PI)),
     pf.SpaceFormSpec(0.0, 4)),
    ("Circle", {"r": np.pi / 3}, (1, (256,), (TWO_PI,)), pf.SpaceFormSpec(1.0, 2)),
    ("Circle", {"r": 1.0}, (1, (256,), (TWO_PI,)), pf.SpaceFormSpec(1.0, 2)),
    ("TorusCliffordLike", {"alpha": np.pi / 5}, (2, (64, 64), (TWO_PI, TWO_PI)),
     pf.SpaceFormSpec(1.0, 3)),
    ("Circle", {"r": 0.7}, (1, (256,), (TWO_PI,)), pf.SpaceFormSpec(-1.0, 2)),
    ("Circle", {"r": 1.2}, (1, (256,), (TWO_PI,)), pf.SpaceFormSpec(-1.0, 2)),
    ("TorusCliffordLike", {"a": 1.0, "rho": 0.4}, (2, (64, 64), (TWO_PI, TWO_PI)),
     pf.SpaceFormSpec(-1.0, 3)),
]


@pytest.mark.parametrize("name,params,grid_args,target", AGREEMENT_FIXTURES)
def test_tritension_space_form_agreement(name, params, grid_args, target):
    phi = build_fixture(name, params, grid_args, target)
    chain = chain_for(phi)
    general, special = chain.tau3, tritension_space_form(chain)
    sup = np.max(sf.norm(target, general))
    diff = np.max(np.abs(general - special))
    assert diff / (1.0 + sup) <= 1e-7


@pytest.mark.parametrize("name,params,grid_args,target", [
    ("TorusCliffordLike", {}, (2, (32, 32), (TWO_PI, TWO_PI)), pf.SpaceFormSpec(1.0, 3)),
    ("TorusCliffordLike", {}, (2, (32, 32), (TWO_PI, TWO_PI)), pf.SpaceFormSpec(-1.0, 3)),
    ("TorusCliffordLike", {}, (2, (32, 32), (TWO_PI, TWO_PI)), pf.SpaceFormSpec(0.0, 4)),
    ("Circle", {"r": 0.3}, (1, (64,), (TWO_PI,)), pf.SpaceFormSpec(-1.0, 2)),
], ids=["S3-32x32", "H3-32x32", "R4-32x32", "H2-circle-64"])
def test_chain_sections_are_components_outermost(name, params, grid_args, target):
    # the map is stored components outermost, and every section the chain
    # builds from it keeps that layout, Delta^2 tau included, as does a
    # random tangent section; on R^4 the tangent projection is the
    # identity, so only the accumulator of nabla's sum sets the layout.  The
    # scalars the probe reduces in an order-dependent way (mean, std, var)
    # stay C-ordered
    phi = build_fixture(name, params, grid_args, target)
    chain = chain_for(phi)
    names = ("dphi", "tau", "grad_tau", "lap_tau", "grad_lap_tau", "tau2", "tau3")
    values = [("values", phi.values), ("coordinate_derivs", list(phi.coordinate_derivs))]
    values += [(name, getattr(chain, name)) for name in names]
    values.append(("Delta^2 tau", chain.laplacian(chain.lap_tau)))
    values.append(("random_tangent_section", pf.random_tangent_section(phi, seed=0)))
    for name, value in values:
        for section in value if isinstance(value, list) else [value]:
            assert section.shape == phi.grid.shape + (target.ambient_dim,), name
            assert components_outermost(section), name
    for name in ("tau_sq", "tau_norm", "lap_norm", "grad_tau_sq"):
        assert getattr(chain, name).flags.c_contiguous, name


@pytest.mark.parametrize("name,params,grid_args,target", [
    ("TorusCliffordLike", {}, (2, (32, 32), (TWO_PI, TWO_PI)), pf.SpaceFormSpec(-1.0, 3)),
    ("GraphSurface", {}, (2, (32, 32), (TWO_PI, TWO_PI)), pf.SpaceFormSpec(0.0, 5)),
    ("Circle", {"r": 0.3}, (1, (64,), (TWO_PI,)), pf.SpaceFormSpec(1.0, 2)),
], ids=["H3-32x32", "R5-graph-32x32", "S2-circle-64"])
def test_results_do_not_depend_on_the_input_layout(name, params, grid_args, target):
    # one map given as a C-ordered array and with its components outermost:
    # MapField copies the first and holds the second, and the chain, the
    # energies and the audit agree byte for byte
    phi = build_fixture(name, params, grid_args, target)
    c_ordered = np.ascontiguousarray(phi.values)
    outermost = domain_grid.components_outermost(c_ordered)
    assert c_ordered.flags.c_contiguous and components_outermost(outermost)
    maps = [pf.MapField(v, phi.grid, phi.spec) for v in (c_ordered, outermost)]
    assert not np.shares_memory(maps[0].values, c_ordered)
    assert np.shares_memory(maps[1].values, outermost)
    chains = [chain_for(m) for m in maps]
    for field in ("dphi", "tau", "grad_tau", "lap_tau", "grad_lap_tau", "tau2", "tau3",
                  "tau_sq", "lap_sq", "grad_tau_sq", "grad_lap_tau_sq"):
        got, expected = (getattr(chain, field) for chain in chains)
        if isinstance(got, list):
            assert [g.tobytes() for g in got] == [x.tobytes() for x in expected], field
        else:
            assert got.tobytes() == expected.tobytes(), field
    reports = [(repr(pf.energy_report(chain).to_dict()),
                repr(pf.pointwise_identity_audit(chain).to_dict())) for chain in chains]
    assert reports[0] == reports[1]


def test_tritension_space_form_not_isometric(circle_grid):
    phi = pf.builtin_map("Circle", {"r": np.pi / 3}, circle_grid,
                         pf.SpaceFormSpec(1.0, 2))
    chain = chain_for(phi, induced=False)  # prescribed flat: g != phi*h
    with pytest.raises(NotIsometric):
        tritension_space_form(chain)


def test_tritension_space_form_not_isometric_on_a_map_that_does_not_immerse():
    # the isometry defect is read unguarded, as the probe reads it, so a map
    # that does not immerse fails the precondition with NotIsometric rather
    # than with the induced metric's DegenerateImmersion
    grid = pf.build_grid(pf.GridSpec(1, (256,), (TWO_PI,)))
    phi = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.05}, grid,
                         pf.SpaceFormSpec(-1.0, 2))
    with pytest.raises(DegenerateImmersion):
        pf.induced_metric(phi)
    chain = chain_for(phi, induced=False)
    assert chain.isometry_defect == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(NotIsometric, match="by 1.000e[+]00"):
        tritension_space_form(chain)
    assert pf.theorem_probe(chain, "max_iters").isometry_defect == chain.isometry_defect


def test_linearity_of_operators(circle_grid):
    phi = pf.builtin_map("Circle", {"r": np.pi / 3}, circle_grid,
                         pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi)
    V = pf.random_tangent_section(phi, seed=11)
    W = pf.random_tangent_section(phi, seed=22)
    a, b = 0.7, -1.3
    combo = a * V + b * W
    chain = TensionChain(phi, frame)
    for op in (
        lambda X: chain.nabla(X)[0],
        chain.laplacian,
        chain.jacobi,
    ):
        lhs = op(combo)
        rhs = a * op(V) + b * op(W)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_sections_tangent(torus_grid):
    phi = pf.builtin_map("TorusCliffordLike", {}, torus_grid,
                         pf.SpaceFormSpec(1.0, 3))
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    assert tangency_residual(phi, chain.tau) <= 1e-8
    assert tangency_residual(phi, chain.lap_tau) <= 1e-8
    assert tangency_residual(phi, chain.tau3) <= 1e-8


def test_rough_laplacian_self_adjoint(circle_grid):
    phi = pf.builtin_map("Circle", {"r": 0.9}, circle_grid, pf.SpaceFormSpec(-1.0, 2))
    frame = frame_for(phi)
    V = pf.random_tangent_section(phi, seed=5)
    W = pf.random_tangent_section(phi, seed=6)
    chain = TensionChain(phi, frame)
    a = pf.integrate(frame, sf.ambient_form(phi.spec, chain.laplacian(V), W))
    b = pf.integrate(frame, sf.ambient_form(phi.spec, V, chain.laplacian(W)))
    assert abs(a - b) <= 1e-8


def test_map_constraint_validation(torus_grid):
    phi = pf.builtin_map("TorusCliffordLike", {}, torus_grid,
                         pf.SpaceFormSpec(-1.0, 3))
    assert phi.constraint_residual() <= 1e-10


# Standalone (recomputing) definitions of the tension chain: every field
# re-derives what it needs.  The chain must reproduce them bit for bit.


def _ref_nabla(phi, values, coeffs):
    out = np.zeros_like(values)
    for a in range(phi.grid.dims):
        out += coeffs[..., a, None] * phi.grid.deriv(
            values, a, floor=phi.spectral_floor
        )
    return sf.project_tangent(phi.spec, phi.values, out)


def _ref_differential(phi, frame):
    e = frame_arrays(frame).e
    return [_ref_nabla(phi, phi.values, e[..., i, :]) for i in range(phi.grid.dims)]


def _ref_lb(phi, frame, values):
    """G^{ab} d_a d_b V + B^b d_b V from a fresh ``deriv12`` per axis.  A
    term whose coefficient the frame holds as 0.0 is left out, as the chain
    leaves it out: adding its zeros would turn a -0.0 into +0.0."""
    grid, floor, coeffs = phi.grid, phi.spectral_floor, frame_arrays(frame)
    G, B = coeffs.G, coeffs.B
    pairs = [grid.deriv12(values, a, floor=floor) for a in range(grid.dims)]
    out = G[..., 0, 0, None] * pairs[0][1]
    for a in range(1, grid.dims):
        out += G[..., a, a, None] * pairs[a][1]
    if grid.dims == 2 and np.any(G[..., 0, 1]):
        out += 2.0 * G[..., 0, 1, None] * grid.deriv(pairs[0][0], 1, floor=floor)
    for b in range(grid.dims):
        if np.any(B[..., b]):
            out += B[..., b, None] * pairs[b][0]
    return out


def _ref_tension(phi, frame):
    return sf.project_tangent(phi.spec, phi.values, _ref_lb(phi, frame, phi.values))


def _ref_laplacian(phi, frame, values):
    out = sf.project_tangent(phi.spec, phi.values, _ref_lb(phi, frame, values))
    if phi.spec.c != 0.0:
        for d in _ref_differential(phi, frame):
            out += (phi.spec.c * sf.ambient_form(phi.spec, d, values))[..., None] * d
    return -out


def _ref_jacobi(phi, frame, values):
    """J(V) = -P(LB V) - c |dphi|^2 V: in a space form the h(V, dphi_i) dphi_i
    terms of Delta V and of the curvature contraction cancel."""
    out = -sf.project_tangent(phi.spec, phi.values, _ref_lb(phi, frame, values))
    if phi.spec.c != 0.0:
        dphi_sq = np.zeros(phi.grid.shape)
        for d in _ref_differential(phi, frame):
            dphi_sq += sf.ambient_form(phi.spec, d, d)
        out -= (phi.spec.c * dphi_sq)[..., None] * values
    return out


def _ref_chain(phi, frame):
    dims, c, e = phi.grid.dims, phi.spec.c, frame_arrays(frame).e
    tau = _ref_tension(phi, frame)
    lap = _ref_laplacian(phi, frame, tau)
    tau3 = _ref_jacobi(phi, frame, lap)
    if c != 0.0:
        # -sum_i R(nabla_{e_i} tau, tau) dphi(e_i), expanded
        dphi = _ref_differential(phi, frame)
        for i in range(dims):
            grad = _ref_nabla(phi, tau, e[..., i, :])
            tau3 -= (c * sf.ambient_form(phi.spec, dphi[i], tau))[..., None] * grad
            tau3 += (c * sf.ambient_form(phi.spec, grad, dphi[i]))[..., None] * tau
    return {
        "dphi": _ref_differential(phi, frame),
        "tau": tau,
        "grad_tau": [_ref_nabla(phi, tau, e[..., i, :]) for i in range(dims)],
        "lap_tau": lap,
        "grad_lap_tau": [_ref_nabla(phi, lap, e[..., i, :]) for i in range(dims)],
        "tau2": _ref_jacobi(phi, frame, tau),
        "tau3": tau3,
    }


# The trace route, an independent reference: nabla_{e_i} of the projected
# nabla_{e_i} V, corrected by the derivative along the coordinate components
# of nabla_{e_i} e_i, which come from the metric's Christoffel symbols.  It
# projects every intermediate field and takes no second-derivative symbol.


def _christoffels(grid, g):
    """Gamma^c_ab = 0.5 g^cd (d_a g_db + d_b g_da - d_d g_ab)."""
    dg = np.stack([grid.deriv(g, a) for a in range(grid.dims)], axis=-3)
    lowered = (np.einsum("...adb->...abd", dg) + np.einsum("...bda->...abd", dg)
               - np.einsum("...dab->...abd", dg))
    return 0.5 * np.einsum("...cd,...abd->...abc", np.linalg.inv(g), lowered)


def _christoffel_connection(grid, frame):
    """nabla_{e_i} e_i = e_i(e_i^c) + Gamma^c_ab e_i^a e_i^b in coordinates:
    the route that differentiates and inverts the metric."""
    gamma, e = _christoffels(grid, frame.metric), frame_arrays(frame).e
    out = np.zeros_like(e)
    for i in range(grid.dims):
        ei = e[..., i, :]
        for a in range(grid.dims):
            out[..., i, :] += ei[..., a, None] * grid.deriv(ei, a)
        out[..., i, :] += np.einsum("...a,...b,...abc->...c", ei, ei, gamma)
    return out


def _trace_laplacian(phi, e, values, connection):
    out = np.zeros_like(values)
    for i in range(phi.grid.dims):
        e_i = e[..., i, :]
        out -= _ref_nabla(phi, _ref_nabla(phi, values, e_i), e_i)
        out += _ref_nabla(phi, values, connection[..., i, :])
    return out


def _trace_chain(phi, frame):
    """tau, Delta tau and tau3 along the trace route."""
    dphi, e = _ref_differential(phi, frame), frame_arrays(frame).e
    connection = _christoffel_connection(phi.grid, frame)
    tau = np.zeros_like(phi.values)
    for i in range(phi.grid.dims):
        tau += _ref_nabla(phi, dphi[i], e[..., i, :])
        tau -= _ref_nabla(phi, phi.values, connection[..., i, :])
    lap = _trace_laplacian(phi, e, tau, connection)
    tau3 = _trace_laplacian(phi, e, lap, connection)
    if phi.spec.c != 0.0:
        for i, d in enumerate(dphi):
            tau3 -= sf.curvature_op(phi.spec, lap, d, d)
            grad = _ref_nabla(phi, tau, e[..., i, :])
            tau3 -= sf.curvature_op(phi.spec, grad, tau, d)
    return {"tau": tau, "lap_tau": lap, "tau3": tau3}


def _chain_cases():
    cases = [pytest.param(*case, "induced", id=f"{case[0]}-c{case[3].c:g}-n{case[3].n}")
             for case in builtin_fixture_set()]
    torus = ("TorusCliffordLike", {}, (2, (64, 64), (TWO_PI, TWO_PI)),
             pf.SpaceFormSpec(-1.0, 3))
    return cases + [pytest.param(*torus, "warped", id="TorusCliffordLike-warped")]


def _case_frame(phi, metric):
    if metric == "warped":
        frame = pf.orthonormal_frame(phi.grid, warped_metric(phi.grid))
        assert frame.lb_terms == (True, (0, 1))
        return frame
    try:
        return frame_for(phi)
    except DegenerateImmersion:
        return frame_for(phi, induced=False)


@pytest.mark.parametrize("name,params,grid_args,target,metric", _chain_cases())
def test_chain_matches_standalone_definitions(name, params, grid_args, target, metric):
    phi = build_fixture(name, params, grid_args, target)
    frame = _case_frame(phi, metric)
    chain = TensionChain(phi, frame)
    ref = _ref_chain(phi, frame)
    for field, expected in ref.items():
        got = getattr(chain, field)
        if isinstance(got, list):
            assert len(got) == len(expected)
            for g, x in zip(got, expected):
                assert g.tobytes() == x.tobytes(), field
        else:
            assert got.tobytes() == expected.tobytes(), field
    lap2 = _ref_laplacian(phi, frame, ref["lap_tau"])
    assert chain.laplacian(chain.lap_tau).tobytes() == lap2.tobytes()


@pytest.mark.parametrize("name,params,grid_args,target,metric", _chain_cases())
def test_frame_along_matches_the_all_axes_sum(name, params, grid_args, target, metric):
    # FrameField.along leaves out the axes whose e_i^a is 0.0: their terms
    # are exact zeros, so it equals the plain sum over every
    # axis bit for bit, on scalars and on 3- and 4-component sections, and
    # keeps the layout deriv gives: C-ordered scalars, sections with their
    # components outermost
    phi = build_fixture(name, params, grid_args, target)
    frame = _case_frame(phi, metric)
    grid, rng, e = phi.grid, np.random.default_rng(0), frame_arrays(frame).e
    for tail in ((), (3,), (4,)):
        derivs = [grid.deriv(rng.standard_normal(grid.shape + tail), a)
                  for a in range(grid.dims)]
        got = frame.along(derivs)
        assert len(got) == grid.dims
        for i, along in enumerate(got):
            expected = np.zeros(grid.shape + tail)
            for a in range(grid.dims):
                expected += e[(..., i, a) + (None,) * len(tail)] * derivs[a]
            assert components_outermost(along) if tail else along.flags.c_contiguous
            assert along.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name,params,grid_args,target,metric", _chain_cases())
def test_chain_outputs_are_tangent(name, params, grid_args, target, metric):
    # every field the chain returns, and its Laplacian and Jacobi operator
    # of a random tangent section, is tangent to roundoff: within 1e-12 of
    # sup|W| sup|phi|, and at least of sup|phi| for a field that vanishes up
    # to roundoff (tau of a geodesic), whose error is set by the map's size
    phi = build_fixture(name, params, grid_args, target)
    chain = TensionChain(phi, _case_frame(phi, metric))
    V = pf.random_tangent_section(phi, seed=3)
    fields = [*chain.dphi, chain.tau, *chain.grad_tau, chain.lap_tau,
              *chain.grad_lap_tau, chain.laplacian(chain.lap_tau), chain.tau2, chain.tau3,
              chain.laplacian(V), chain.jacobi(V)]
    for W in fields:
        scale = max(1.0, np.max(np.abs(W))) * np.max(np.abs(phi.values))
        assert tangency_residual(phi, W) <= 1e-12 * scale


@pytest.mark.parametrize("name,params,grid_args,target", [
    ("Circle", {"r": 0.7}, (1, (256,), (TWO_PI,)), pf.SpaceFormSpec(-1.0, 2)),
    ("TorusCliffordLike", {"a": 1.0, "rho": 0.4}, (2, (64, 64), (TWO_PI, TWO_PI)),
     pf.SpaceFormSpec(-1.0, 3)),
], ids=["circle-H2", "tube-torus-H3"])
def test_chain_sharing_never_changes_a_result(name, params, grid_args, target):
    # the operators applied afresh to a cached field reproduce the cached
    # field that reuses it, bit for bit, and never write the cached arrays
    # they take as input
    phi = build_fixture(name, params, grid_args, target)
    frame = frame_for(phi)
    assert frame.lb_terms[1] == ((1,) if phi.grid.dims == 2 else ())
    chain = TensionChain(phi, frame)
    cached = ("tau", "lap_tau", "tau2", "tau3", "grad_tau")

    def snapshot():
        return {name: np.asarray(getattr(chain, name)).tobytes() for name in cached}

    before = snapshot()
    assert chain.jacobi(chain.tau).tobytes() == chain.tau2.tobytes()
    for fresh, cached_grad in zip(chain.nabla(chain.tau), chain.grad_tau, strict=True):
        assert np.array_equal(fresh, cached_grad)
    # tau3 is formed in place on the chain's own P(LB Delta tau): a fresh
    # J(Delta tau) followed by the same curvature terms gives its bits
    spec, tau = phi.spec, chain.tau
    expected = chain.jacobi(chain.lap_tau)
    for g, d in zip(chain.grad_tau, chain.dphi):
        h_dt = sf.ambient_form(spec, d, tau)
        h_gd = sf.ambient_form(spec, g, d)
        expected -= (spec.c * h_dt)[..., None] * g
        expected += (spec.c * h_gd)[..., None] * tau
    assert chain.tau3.tobytes() == expected.tobytes()
    for V in (chain.tau, chain.lap_tau):
        for op in (chain.nabla, chain.laplacian, chain.jacobi):
            op(V)
    pf.vary(phi, chain.tau, 1e-3)
    tritension_space_form(chain)
    assert snapshot() == before


def _textbook_curvature(chain, V):
    """sum_i R(V, dphi(e_i)) dphi(e_i) from the curvature tensor, summed in
    frame order onto zeros; zero on a flat target."""
    out = np.zeros_like(V)
    if chain.phi.spec.c != 0.0:
        for d in chain.dphi:
            out += sf.curvature_op(chain.phi.spec, V, d, d)
    return out


def test_jacobi_closed_form_matches_textbook():
    # J(W) = -P(LB W) - c |dphi|^2 W against Delta W - sum_i R(W, dphi_i) dphi_i,
    # and tau3 against J(Delta tau) - sum_i R(nabla_i tau, tau) dphi_i with
    # Delta^2 tau and every curvature term formed, on every chain fixture:
    # the two routes differ by roundoff only
    worst = 0.0
    for case in _chain_cases():
        name, params, grid_args, target, metric = case.values
        phi = build_fixture(name, params, grid_args, target)
        chain = TensionChain(phi, _case_frame(phi, metric))
        for W in (pf.random_tangent_section(phi, seed=4), chain.tau, chain.lap_tau):
            lap, curv = chain.laplacian(W), _textbook_curvature(chain, W)
            scale = max(np.max(np.abs(lap)), np.max(np.abs(curv)))
            err = np.max(np.abs(chain.jacobi(W) - (lap - curv)))
            assert err <= 1e-14 * scale, case.id
            worst = max(worst, err / scale)
        lap2 = chain.laplacian(chain.lap_tau)
        curv = _textbook_curvature(chain, chain.lap_tau)
        textbook = lap2 - curv
        for g, d in zip(chain.grad_tau, chain.dphi):
            textbook -= sf.curvature_op(phi.spec, g, chain.tau, d)
        scale = max(np.max(np.abs(lap2)), np.max(np.abs(curv)))
        err = np.max(np.abs(chain.tau3 - textbook))
        assert err <= 1e-14 * scale, case.id
        worst = max(worst, err / scale)
    print(f"[jacobi] closed form against Delta - sum R: worst relative "
          f"difference {worst:.1e} over {len(_chain_cases())} fixtures")


@pytest.mark.parametrize("name,params,grid_args,target,metric", _chain_cases())
def test_sup_norm_is_the_max_of_norm_field(name, params, grid_args, target, metric):
    # sup_norm(k) takes sqrt(max(0, max h(V, V))), which equals the max of
    # tau_norm (k = 1) or of sf.norm bit for bit, as sqrt is monotone and
    # correctly rounded; also for the field with a NaN node and for an
    # identically zero field
    phi = build_fixture(name, params, grid_args, target)
    frame = _case_frame(phi, metric)
    fields = TensionChain(phi, frame)
    for k in (1, 2, 3):
        V = fields.field(k)
        nan = V.copy()
        nan[(3,) * phi.grid.dims] = np.nan
        for values in (V, nan, np.zeros_like(V)):
            chain = TensionChain(phi, frame)
            chain.__dict__[("tau", "tau2", "tau3")[k - 1]] = values
            norm = chain.tau_norm if k == 1 else sf.norm(phi.spec, chain.field(k))
            expected = float(norm.max())
            assert struct.pack("<d", chain.sup_norm(k)) == struct.pack("<d", expected)


@pytest.mark.parametrize("name,params,grid_args,target,metric", _chain_cases())
def test_energy2_and_etilde4_integrate_the_cached_squares(name, params, grid_args,
                                                          target, metric):
    # E2 and Etilde4 are half the integrals of h(tau, tau) and
    # h(Delta tau, Delta tau), the squares the chain caches, bit for bit
    phi = build_fixture(name, params, grid_args, target)
    frame = _case_frame(phi, metric)
    chain = TensionChain(phi, frame)
    assert chain.energy(2) == 0.5 * pf.integrate(frame, chain.tau_sq)
    assert chain.etilde4 == 0.5 * pf.integrate(frame, chain.lap_sq)


def _trace_route_error(n, metric):
    """Largest relative difference of tau, Delta tau and tau3 between the
    chain and the trace route, on the H^3 tube torus at n^2."""
    phi = build_fixture("TorusCliffordLike", {}, (2, (n, n), (TWO_PI, TWO_PI)),
                        pf.SpaceFormSpec(-1.0, 3))
    frame = _case_frame(phi, metric)
    assert frame.lb_terms[1]
    chain = TensionChain(phi, frame)
    errs = []
    for field, ref in _trace_chain(phi, frame).items():
        got = getattr(chain, field)
        errs.append(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    return max(errs)


@pytest.mark.parametrize("metric", ["warped", "induced"])
def test_chain_matches_coordinate_form_connection(metric):
    # the projected Laplace-Beltrami chain against the trace route, which
    # corrects by differentiating along the coordinate components of
    # nabla_{e_i} e_i.  On the induced frame they agree to roundoff.  On the
    # warped metric they differ by discretisation (each route differentiates
    # other products of the metric's Fourier content), so the difference
    # shrinks as the grid is refined
    if metric == "induced":
        assert _trace_route_error(64, metric) <= 1e-10
        return
    errs = [_trace_route_error(n, metric) for n in (32, 48, 64)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-9


def _ref_laplace_beltrami(grid, frame, f):
    """laplace_beltrami with every term taken, those whose coefficient is
    0.0 too."""
    pairs = [grid.deriv12(f, a) for a in range(grid.dims)]
    coeffs = frame_arrays(frame)
    G, B = coeffs.G, coeffs.B
    out = G[..., 0, 0] * pairs[0][1]
    out += G[..., 1, 1] * pairs[1][1]
    out += 2.0 * G[..., 0, 1] * grid.deriv(pairs[0][0], 1)
    for b in range(grid.dims):
        out += B[..., b] * pairs[b][0]
    return out


@pytest.mark.parametrize("name,params,grid_args,target,metric", _chain_cases())
def test_div_terms_match_christoffel_route(name, params, grid_args, target, metric):
    # B^c = (1/sqrt g) d_a(sqrt g g^{ab}) = -g^{ab} Gamma^c_ab
    phi = build_fixture(name, params, grid_args, target)
    frame = _case_frame(phi, metric)
    gamma, coeffs = _christoffels(phi.grid, frame.metric), frame_arrays(frame)
    ref = -np.einsum("...ab,...abc->...c", coeffs.G, gamma)
    err = np.max(np.abs(coeffs.B - ref))
    assert err <= 1e-10 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("metric,axes", [("flat", ((0,), (1,))),
                                         ("warped", ((0,), (0, 1)))])
def test_frame_axes_skip_exact_zeros(torus_grid, metric, axes):
    g = pf.identity_metric(torus_grid) if metric == "flat" else warped_metric(torus_grid)
    frame = pf.orthonormal_frame(torus_grid, g)
    assert frame.axes == axes
    u, v = torus_grid.coords
    f = np.exp(np.sin(u) * np.cos(2 * v))
    expected = _ref_laplace_beltrami(torus_grid, frame, f)
    assert laplace_beltrami(frame, f)[1].tobytes() == expected.tobytes()


@pytest.mark.parametrize("sizes,lengths", [((128,), (TWO_PI,)), ((256,), (2 * TWO_PI,)),
                                           ((256,), (TWO_PI,))])
def test_chain_rejects_a_frame_of_another_grid(flat_circle, sizes, lengths):
    # a frame of another grid spec (size, period or backend) is refused: a
    # flat frame of the 128-node or the 4 pi grid gave E1 = 2 pi, not pi
    other = pf.build_grid(pf.GridSpec(1, sizes, lengths, "CentralFD2"))
    with pytest.raises(ValueError):
        TensionChain(flat_circle, pf.orthonormal_frame(other, pf.identity_metric(other)))
    # a frame of an equal grid spec, though another grid object, is the map's
    twin = pf.build_grid(flat_circle.grid.spec)
    chain = TensionChain(flat_circle, pf.orthonormal_frame(twin, pf.identity_metric(twin)))
    assert chain.energy(1) == pytest.approx(np.pi, rel=1e-12)


def test_map_values_are_read_only(flat_circle):
    # a map's cached coordinate derivatives cannot go stale
    with pytest.raises(ValueError):
        flat_circle.values[0, 0] = 2.0
    with pytest.raises(AttributeError):
        flat_circle.values = flat_circle.values.copy()


def count_calls(monkeypatch, owner, name) -> list:
    """One entry per call of ``owner.name`` from now on."""
    calls, fn = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_induced_metric_and_chain_share_the_map_derivatives(monkeypatch, c):
    # d_a phi and d_a^2 phi are taken once per map, from one rfft per axis:
    # the induced metric takes them, the chain's dphi reads the same arrays
    # without a derivative of its own, and tau takes none: both tori's
    # metrics are diagonal, so G^{01} is 0.0 (on the H^3 tube torus it is
    # roundoff, which the frame drops)
    phi = build_fixture("TorusCliffordLike", {}, (2, (32, 32), (TWO_PI, TWO_PI)),
                        pf.SpaceFormSpec(c, 3))
    kinds = record_derivs(monkeypatch)
    metric = pf.induced_metric(phi)
    derivs = phi.coordinate_derivs
    assert len(kinds) == 4
    for a in range(2):
        for b in range(2):
            assert (metric[..., a, b].tobytes()
                    == sf.ambient_form(phi.spec, derivs[a], derivs[b]).tobytes())
    frame = pf.orthonormal_frame(phi.grid, metric)
    kinds.clear()
    chain = TensionChain(phi, frame)
    for d, along in zip(chain.dphi, frame.along(derivs)):
        expected = sf.project_tangent(phi.spec, phi.values, along)
        assert d.tobytes() == expected.tobytes()
    assert kinds == []
    chain.tau
    assert kinds == []
    assert frame.lb_terms == (False, (1,) if c < 0 else ())
    assert phi.coordinate_derivs is derivs


@pytest.mark.parametrize("metric,expected", [("flat", 12), ("warped", 15)])
def test_chain_deriv_count_2d(monkeypatch, metric, expected):
    # tau3 takes d_a V and d_a^2 V of phi, tau and Delta tau from one rfft
    # per axis: 12 derivatives from 6 forward transforms.  The warped
    # metric's G^{01} is not identically zero, so each field also takes
    # d_0 d_1 V, one more transform; its B terms reuse the first derivatives
    phi = build_fixture("TorusCliffordLike", {}, (2, (64, 64), (TWO_PI, TWO_PI)),
                        pf.SpaceFormSpec(1.0, 3))
    g = pf.identity_metric(phi.grid) if metric == "flat" else warped_metric(phi.grid)
    frame = pf.orthonormal_frame(phi.grid, g)
    assert frame.lb_terms == ((False, ()) if metric == "flat" else (True, (0, 1)))
    kinds = record_derivs(monkeypatch)
    forward = count_calls(monkeypatch, np.fft, "rfft")
    TensionChain(phi, frame).tau3
    assert len(kinds) == expected
    assert len(forward) == 6 + 3 * frame.lb_terms[0]


def test_chain_projection_count_2d(monkeypatch):
    # tau3 projects each nabla_{e_i} of phi and tau and each of the three
    # Laplace-Beltrami sums once: 7 on a 2-d frame, with no Delta^2 tau and
    # no curvature tensor.  nabla_{e_i} Delta tau, which tau3 does not read,
    # is projected when it is asked for.  Delta^2 tau, as the Laplacian of
    # Delta tau, and tritension_space_form's J(Delta tau), which no chain
    # field reads, each take a Laplace-Beltrami sum of Delta tau of their own.
    # The H^3 tube torus's frame keeps only its B^1 term
    phi = build_fixture("TorusCliffordLike", {}, (2, (64, 64), (TWO_PI, TWO_PI)),
                        pf.SpaceFormSpec(-1.0, 3))
    frame = frame_for(phi)
    assert frame.lb_terms == (False, (1,))
    calls = count_calls(monkeypatch, sf, "project_tangent")
    curvature = count_calls(monkeypatch, sf, "curvature_op")
    chain = TensionChain(phi, frame)
    chain.tau3
    assert len(calls) == 7
    assert curvature == []
    chain.grad_lap_tau
    assert len(calls) == 9
    tritension_space_form(chain)
    chain.laplacian(chain.lap_tau)
    assert len(calls) == 11 and curvature == []


def test_flow_iteration_deriv_count(monkeypatch):
    # one accepted triharmonic step on criterion 8's 1-d state, plus
    # everything the flow reads from the next state's chain
    grid = pf.build_grid(pf.GridSpec(1, (256,), (TWO_PI,)))
    phi = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.05, "k": 3}, grid,
                         pf.SpaceFormSpec(-1.0, 2))
    frame = frame_for(phi, induced=False)
    cfg = pf.FlowConfig(kind="Triharmonic")
    chain = TensionChain(phi, frame)
    chain.field(3)
    _trace_metrics(chain)

    kinds = record_derivs(monkeypatch)
    trial = pf.flow_step(chain, cfg, dt=cfg.initial_dt(grid))
    assert trial.accepted
    nxt = trial.chain
    nxt.field(3)
    _trace_metrics(nxt)
    nxt.energy(3)
    assert len(kinds) <= 6

    # over a whole flow, each trial's implicit step transforms the descent's
    # frame coefficients once each way (one rfft and one irfft on a 1-d
    # grid, counted whether called directly or through rfftn and irfftn)
    # beyond its derivatives' transforms: one rfft per thresholded spectrum
    # (a ``deriv`` or ``deriv12`` call) and one irfft per derivative
    trials = 10
    kinds.clear()
    spectra = count_calls(monkeypatch, DomainGrid, "_spectral")
    forward = count_calls(monkeypatch, np.fft, "rfft")
    inverse = count_calls(monkeypatch, np.fft, "irfft")
    forward_n = count_calls(monkeypatch, np.fft, "rfftn")
    inverse_n = count_calls(monkeypatch, np.fft, "irfftn")
    _, trace = pf.run_flow(phi, pf.FlowConfig(kind="Triharmonic", max_iters=trials,
                                              grad_tol=1e-12))
    assert len(trace.rows) == trials + 1
    assert len(forward) + len(forward_n) == len(spectra) + trials
    assert len(inverse) + len(inverse_n) == len(kinds) + trials
