"""Operator stack: differential, connection, Laplacians, tension fields,
all read from one TensionChain per state."""

import numpy as np
import pytest

import polyflow as pf
from polyflow import space_form as sf
from polyflow.domain_grid import DomainGrid, scalar_laplacian
from polyflow.errors import DegenerateImmersion, NotIsometric
from polyflow.flow import _trace_metrics
from polyflow.pullback import Section, TensionChain, tritension_space_form

from conftest import (build_fixture, builtin_fixture_set, chain_for, frame_for,
                      record_derivs, warped_metric)

TWO_PI = 2 * np.pi


def arc_length_circle(r, n=256):
    """Circle of radius r, arc-length parametrized: domain length 2*pi*r."""
    grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI * r,)))
    return pf.builtin_map("Circle", {"r": r}, grid, pf.SpaceFormSpec(0.0, 2))


def test_differential_circle(flat_circle):
    frame = frame_for(flat_circle)
    (d,) = TensionChain(flat_circle, frame).dphi
    s = flat_circle.grid.axes[0]
    expected = np.stack([-np.sin(s), np.cos(s)], axis=-1)
    assert np.max(np.abs(d.values - expected)) <= 1e-12


def test_differential_constant_map(circle_grid):
    spec = pf.SpaceFormSpec(0.0, 2)
    values = np.broadcast_to([1.5, -0.5], circle_grid.shape + (2,)).copy()
    phi = pf.MapField(values=values, grid=circle_grid, spec=spec)
    frame = frame_for(phi, induced=False)
    (d,) = TensionChain(phi, frame).dphi
    assert np.max(np.abs(d.values)) == 0.0


def test_differential_isometric_norm(torus_grid):
    phi = build_fixture("TorusCliffordLike", {}, (2, (64, 64), (TWO_PI, TWO_PI)),
                        pf.SpaceFormSpec(1.0, 3))
    frame = frame_for(phi)
    total = np.zeros(phi.grid.shape)
    for d in TensionChain(phi, frame).dphi:
        total += sf.inner(phi.spec, phi.values, d.values, d.values)
    np.testing.assert_allclose(total, 2.0, atol=1e-10)


def test_nabla_bar_circle_tension(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    (grad,) = chain.nabla(chain.tau)
    s = flat_circle.grid.axes[0]
    expected = np.stack([np.sin(s), -np.cos(s)], axis=-1)
    assert np.max(np.abs(grad.values - expected)) <= 1e-12


def test_nabla_bar_parallel_normal_field(circle_grid):
    # the unit normal of the equatorial plane is parallel along the equator
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi)
    normal = np.zeros(circle_grid.shape + (3,))
    normal[..., 2] = 1.0
    V = Section(values=normal, base=phi)
    (grad,) = TensionChain(phi, frame).nabla(V)
    assert np.max(np.abs(grad.values)) <= 1e-14


def test_nabla_bar_sine_field(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi)
    s = circle_grid.axes[0]
    V = Section(values=np.sin(s)[..., None] * np.array([0.0, 0.0, 1.0]), base=phi)
    (grad,) = TensionChain(phi, frame).nabla(V)
    expected = np.cos(s)[..., None] * np.array([0.0, 0.0, 1.0])
    assert np.max(np.abs(grad.values - expected)) <= 1e-12


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_tension_circle_closed_form(r):
    phi = arc_length_circle(r)
    frame = frame_for(phi)
    tau = pf.tension(phi, frame)
    s = phi.grid.axes[0]
    expected = -(1.0 / r) * np.stack([np.cos(s / r), np.sin(s / r)], axis=-1)
    assert np.max(np.abs(tau.values - expected)) <= 1e-10
    assert np.max(np.abs(tau.norm_field() - 1.0 / r)) <= 1e-10


def test_tension_geodesic_vanishes(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    tau = pf.tension(phi, frame_for(phi))
    assert np.max(tau.norm_field()) <= 1e-13


def test_tension_small_circle_geodesic_curvature(circle_grid):
    # independent oracle: a circle at colatitude t on the unit sphere has
    # |tau| = cot(t)
    t0 = np.pi / 3
    phi = pf.builtin_map("Circle", {"r": t0}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    tau = pf.tension(phi, frame_for(phi))
    assert np.max(np.abs(tau.norm_field() - 1.0 / np.tan(t0))) <= 1e-12


def test_tension_hyperbolic_circle_geodesic_curvature(circle_grid):
    # independent oracle: |tau| = coth(rho) for the hyperbolic circle
    rho = 0.7
    phi = pf.builtin_map("Circle", {"r": rho}, circle_grid, pf.SpaceFormSpec(-1.0, 2))
    tau = pf.tension(phi, frame_for(phi))
    assert np.max(np.abs(tau.norm_field() - 1.0 / np.tanh(rho))) <= 1e-12


def test_tension_clifford_torus(torus_grid):
    # independent oracle: |tau| = 2 cot(2 alpha), minimal at alpha = pi/4
    alpha = np.pi / 5
    phi = pf.builtin_map("TorusCliffordLike", {"alpha": alpha}, torus_grid,
                         pf.SpaceFormSpec(1.0, 3))
    tau = pf.tension(phi, frame_for(phi))
    assert np.max(np.abs(tau.norm_field() - 2.0 / np.tan(2 * alpha))) <= 1e-10
    phi_min = pf.builtin_map("TorusCliffordLike", {"alpha": np.pi / 4}, torus_grid,
                             pf.SpaceFormSpec(1.0, 3))
    tau_min = pf.tension(phi_min, frame_for(phi_min))
    assert np.max(tau_min.norm_field()) <= 1e-12


def test_tension_flat_product_torus(torus_grid):
    phi = pf.builtin_map("TorusCliffordLike", {"r1": 1.0, "r2": 0.7}, torus_grid,
                         pf.SpaceFormSpec(0.0, 4))
    tau = pf.tension(phi, frame_for(phi))
    expected = np.sqrt(1.0 + 1.0 / 0.49)
    assert np.max(np.abs(tau.norm_field() - expected)) <= 1e-10


def test_rough_laplacian_circle(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    tau, lap = chain.tau, chain.lap_tau
    assert np.max(np.abs(lap.values - tau.values)) <= 1e-12


def test_rough_laplacian_circle_r2():
    phi = arc_length_circle(2.0)
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    tau, lap = chain.tau, chain.lap_tau
    assert np.max(np.abs(lap.values - 0.25 * tau.values)) <= 1e-12
    assert np.max(np.abs(lap.norm_field() - 0.125)) <= 1e-12


def test_rough_laplacian_constant_field(circle_grid, flat_circle):
    frame = frame_for(flat_circle, induced=False)
    V = Section(
        values=np.broadcast_to([0.2, 0.1], circle_grid.shape + (2,)).copy(),
        base=flat_circle,
    )
    lap = TensionChain(flat_circle, frame).laplacian(V)
    assert np.max(np.abs(lap.values)) == 0.0


def test_rough_laplacian_eigenfield(circle_grid, flat_circle):
    frame = frame_for(flat_circle, induced=False)
    s = circle_grid.axes[0]
    V = Section(values=np.stack([np.sin(s), np.zeros_like(s)], -1), base=flat_circle)
    lap = TensionChain(flat_circle, frame).laplacian(V)
    assert np.max(np.abs(lap.values - V.values)) <= 1e-12


def test_iterated_laplacian(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    for out in (chain.lap_tau, chain.lap2_tau):
        assert np.max(np.abs(out.values - chain.tau.values)) <= 1e-11


def test_curvature_contraction_flat(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    out = chain.curvature(chain.tau)
    assert np.max(np.abs(out.values)) == 0.0


def test_curvature_contraction_normal_section(circle_grid):
    # for V normal to the image of an isometric immersion the contraction
    # collapses to c * dims * V (space-form tensor, h(V, dphi) = 0)
    phi = pf.builtin_map("Circle", {"r": 0.8}, circle_grid, pf.SpaceFormSpec(-1.0, 2))
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    tau = chain.tau
    V = Section(values=tau.values / tau.norm_field()[..., None], base=phi)
    out = chain.curvature(V)
    assert np.max(np.abs(out.values - phi.spec.c * 1 * V.values)) <= 1e-12


def test_curvature_contraction_tangent_line(circle_grid):
    # dims = 1 and V = dphi(e1): R(V, V)V = 0
    phi = pf.builtin_map("Circle", {"r": 0.5}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    (d,) = chain.dphi
    out = chain.curvature(d)
    assert np.max(out.norm_field()) <= 1e-13


def test_jacobi_flat_is_laplacian(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    tau = chain.tau
    jac = chain.jacobi(tau)
    lap = chain.laplacian(tau)
    assert np.max(np.abs(jac.values - lap.values)) == 0.0
    assert np.max(np.abs(jac.values - tau.values)) <= 1e-12


def test_jacobi_zero_section(flat_circle):
    frame = frame_for(flat_circle)
    V = Section(values=np.zeros_like(flat_circle.values), base=flat_circle)
    assert np.max(np.abs(TensionChain(flat_circle, frame).jacobi(V).values)) == 0.0


def test_bitension_circle(flat_circle):
    frame = frame_for(flat_circle)
    chain = TensionChain(flat_circle, frame)
    tau2, tau = chain.tau2, chain.tau
    assert np.max(np.abs(tau2.values - tau.values)) <= 1e-11
    assert np.max(np.abs(tau2.norm_field() - 1.0)) <= 1e-11


def test_bitension_scaling():
    phi = arc_length_circle(2.0)
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    tau2, tau = chain.tau2, chain.tau
    assert np.max(np.abs(tau2.values - 0.25 * tau.values)) <= 1e-12


def test_harmonic_chain_geodesic(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    assert np.max(chain.tau.norm_field()) <= 1e-13
    assert np.max(chain.tau2.norm_field()) <= 1e-12
    assert np.max(chain.tau3.norm_field()) <= 1e-9


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_tritension_circle_scaling_law(r):
    # |tau| = 1/r, |lap tau| = 1/r^3, |tau3| = 1/r^5 for arc-length circles
    phi = arc_length_circle(r)
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    tau, lap, tau3 = chain.tau, chain.lap_tau, chain.tau3
    assert np.max(np.abs(tau.norm_field() - r**-1)) <= 1e-10 * r**-1
    assert np.max(np.abs(lap.norm_field() - r**-3)) <= 1e-9 * r**-3
    assert np.max(np.abs(tau3.norm_field() - r**-5)) <= 1e-9 * r**-5


def test_tritension_circle_scaling_fd2_converges():
    errs = []
    for n in (128, 256):
        grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI,), "CentralFD2"))
        phi = pf.builtin_map("Circle", {"r": 1.0}, grid, pf.SpaceFormSpec(0.0, 2))
        frame = pf.orthonormal_frame(grid, pf.identity_metric(grid))
        tau3 = TensionChain(phi, frame).tau3
        errs.append(np.max(np.abs(tau3.norm_field() - 1.0)))
    order = np.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3


def test_tritension_flat_equals_iterated_laplacian(torus_grid):
    phi = pf.builtin_map("GraphSurface", {}, torus_grid, pf.SpaceFormSpec(0.0, 5))
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    lap2 = chain.laplacian(chain.laplacian(chain.tau))
    assert np.max(np.abs(chain.tau3.values - lap2.values)) == 0.0


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
    sup = np.max(general.norm_field())
    diff = np.max(np.abs(general.values - special.values))
    assert diff / (1.0 + sup) <= 1e-7


@pytest.mark.parametrize("target", [pf.SpaceFormSpec(1.0, 3),
                                    pf.SpaceFormSpec(-1.0, 3),
                                    pf.SpaceFormSpec(0.0, 4)])
def test_chain_fields_are_c_ordered(target):
    # deriv returns middle-axis derivatives as strided views; every section
    # built from them stays C-ordered, so order-dependent reductions over a
    # section (the probe's mean, std and var) see one layout.  On R^4 the
    # tangent projection is the identity, so only the accumulator of
    # nabla's sum sets the layout
    phi = build_fixture("TorusCliffordLike", {}, (2, (32, 32), (TWO_PI, TWO_PI)),
                        target)
    chain = chain_for(phi)
    assert not phi.coordinate_derivs[1].flags.c_contiguous
    for name in ("dphi", "tau", "grad_tau", "lap_tau", "grad_lap_tau", "lap2_tau",
                 "tau2", "tau3"):
        value = getattr(chain, name)
        for section in value if isinstance(value, list) else [value]:
            assert section.values.flags.c_contiguous, name


def test_tritension_space_form_not_isometric(circle_grid):
    phi = pf.builtin_map("Circle", {"r": np.pi / 3}, circle_grid,
                         pf.SpaceFormSpec(1.0, 2))
    chain = chain_for(phi, induced=False)  # prescribed flat: g != phi*h
    with pytest.raises(NotIsometric):
        tritension_space_form(chain)


def test_linearity_of_operators(circle_grid):
    phi = pf.builtin_map("Circle", {"r": np.pi / 3}, circle_grid,
                         pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi)
    V = pf.random_tangent_section(phi, seed=11)
    W = pf.random_tangent_section(phi, seed=22)
    a, b = 0.7, -1.3
    combo = Section(values=a * V.values + b * W.values, base=phi)
    chain = TensionChain(phi, frame)
    for op in (
        lambda X: chain.nabla(X)[0],
        chain.laplacian,
        chain.curvature,
        chain.jacobi,
    ):
        lhs = op(combo).values
        rhs = a * op(V).values + b * op(W).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_sections_tangent(torus_grid):
    phi = pf.builtin_map("TorusCliffordLike", {}, torus_grid,
                         pf.SpaceFormSpec(1.0, 3))
    frame = frame_for(phi)
    chain = TensionChain(phi, frame)
    assert chain.tau.tangency_residual() <= 1e-8
    assert chain.lap_tau.tangency_residual() <= 1e-8
    assert chain.tau3.tangency_residual() <= 1e-8


def test_rough_laplacian_self_adjoint(circle_grid):
    phi = pf.builtin_map("Circle", {"r": 0.9}, circle_grid, pf.SpaceFormSpec(-1.0, 2))
    frame = frame_for(phi)
    V = pf.random_tangent_section(phi, seed=5)
    W = pf.random_tangent_section(phi, seed=6)
    chain = TensionChain(phi, frame)
    a = pf.integrate(circle_grid, frame, sf.inner(
        phi.spec, phi.values, chain.laplacian(V).values, W.values))
    b = pf.integrate(circle_grid, frame, sf.inner(
        phi.spec, phi.values, V.values, chain.laplacian(W).values))
    assert abs(a - b) <= 1e-8


def test_map_constraint_validation(torus_grid):
    phi = pf.builtin_map("TorusCliffordLike", {}, torus_grid,
                         pf.SpaceFormSpec(-1.0, 3))
    assert phi.constraint_residual() <= 1e-10


# Standalone (recomputing) definitions of the tension chain: every field
# re-derives what it needs, and every connection correction is applied,
# zero or not.  The chain must reproduce them bit for bit.


def _ref_nabla(phi, values, coeffs):
    out = np.zeros_like(values)
    for a in range(phi.grid.dims):
        out += coeffs[..., a, None] * phi.grid.deriv(
            values, a, floor=phi.spectral_floor
        )
    return sf.project_tangent(phi.spec, phi.values, out)


def _ref_differential(phi, frame):
    dims = phi.grid.dims
    return [_ref_nabla(phi, phi.values, frame.e[..., i, :]) for i in range(dims)]


def _coordinate_connection(frame):
    """nabla_{e_i} e_i in the coordinate basis: sum_j connection[i, j] e_j."""
    return np.einsum("...ij,...ja->...ia", frame.connection, frame.e)


def _ref_correction(phi, frame, values, i, coordinate):
    """nabla_{nabla_{e_i} e_i} V, dphi(nabla_{e_i} e_i) for V = phi: from the
    frame coefficients, sum_j connection[i, j] nabla_{e_j} V, or with
    ``coordinate`` the projected derivative of V along the coordinate
    components of nabla_{e_i} e_i."""
    if coordinate:
        return _ref_nabla(phi, values, _coordinate_connection(frame)[..., i, :])
    out = np.zeros_like(values)
    for j in range(phi.grid.dims):
        out += frame.connection[..., i, j, None] * _ref_nabla(
            phi, values, frame.e[..., j, :])
    return out


def _ref_tension(phi, frame, coordinate=False):
    dphi = _ref_differential(phi, frame)
    out = np.zeros_like(phi.values)
    for i in range(phi.grid.dims):
        out += _ref_nabla(phi, dphi[i], frame.e[..., i, :])
        out -= _ref_correction(phi, frame, phi.values, i, coordinate)
    return out


def _ref_laplacian(phi, frame, values, coordinate=False):
    out = np.zeros_like(values)
    for i in range(phi.grid.dims):
        e_i = frame.e[..., i, :]
        out -= _ref_nabla(phi, _ref_nabla(phi, values, e_i), e_i)
        out += _ref_correction(phi, frame, values, i, coordinate)
    return out


def _ref_jacobi(phi, frame, values, coordinate=False):
    curv = np.zeros_like(values)
    if phi.spec.c != 0.0:
        for d in _ref_differential(phi, frame):
            curv += sf.curvature_op(phi.spec, phi.values, values, d, d)
    return _ref_laplacian(phi, frame, values, coordinate) - curv


def _ref_chain(phi, frame, coordinate=False):
    dims = phi.grid.dims
    tau = _ref_tension(phi, frame, coordinate)
    lap = _ref_laplacian(phi, frame, tau, coordinate)
    tau3 = _ref_jacobi(phi, frame, lap, coordinate)
    if phi.spec.c != 0.0:
        dphi = _ref_differential(phi, frame)
        for i in range(dims):
            grad = _ref_nabla(phi, tau, frame.e[..., i, :])
            tau3 -= sf.curvature_op(phi.spec, phi.values, grad, tau, dphi[i])
    return {
        "dphi": _ref_differential(phi, frame),
        "tau": tau,
        "grad_tau": [_ref_nabla(phi, tau, frame.e[..., i, :]) for i in range(dims)],
        "lap_tau": lap,
        "grad_lap_tau": [_ref_nabla(phi, lap, frame.e[..., i, :]) for i in range(dims)],
        "tau2": _ref_jacobi(phi, frame, tau, coordinate),
        "tau3": tau3,
    }


def _chain_cases():
    cases = [pytest.param(*case, "induced", id=f"{case[0]}-c{case[3].c:g}-n{case[3].n}")
             for case in builtin_fixture_set()]
    torus = ("TorusCliffordLike", {}, (2, (64, 64), (TWO_PI, TWO_PI)),
             pf.SpaceFormSpec(-1.0, 3))
    return cases + [pytest.param(*torus, "warped", id="TorusCliffordLike-warped")]


def _case_frame(phi, metric):
    if metric == "warped":
        frame = pf.orthonormal_frame(phi.grid, warped_metric(phi.grid))
        assert not frame.zero_connection
        return frame
    try:
        return frame_for(phi)
    except DegenerateImmersion:
        return frame_for(phi, induced=False)


@pytest.mark.parametrize("name,params,grid_args,target,metric", _chain_cases())
def test_chain_matches_standalone_definitions(name, params, grid_args, target, metric):
    phi = build_fixture(name, params, grid_args, target)
    frame = _case_frame(phi, metric)
    assert frame.zero_connection == (not np.any(frame.connection))
    chain = TensionChain(phi, frame)
    for field, expected in _ref_chain(phi, frame).items():
        got = getattr(chain, field)
        if isinstance(got, list):
            assert len(got) == len(expected)
            for g, x in zip(got, expected):
                assert g.values.tobytes() == x.tobytes(), field
        else:
            assert got.values.tobytes() == expected.tobytes(), field


@pytest.mark.parametrize("name,params,grid_args,target", [
    ("Circle", {"r": 0.7}, (1, (256,), (TWO_PI,)), pf.SpaceFormSpec(-1.0, 2)),
    ("TorusCliffordLike", {"a": 1.0, "rho": 0.4}, (2, (64, 64), (TWO_PI, TWO_PI)),
     pf.SpaceFormSpec(-1.0, 3)),
], ids=["circle-H2", "tube-torus-H3"])
def test_chain_sharing_never_changes_a_result(name, params, grid_args, target):
    # the operators applied afresh to a cached field reproduce the cached
    # field that reuses it, bit for bit
    phi = build_fixture(name, params, grid_args, target)
    frame = frame_for(phi)
    assert frame.zero_connection == (phi.grid.dims == 1)
    chain = TensionChain(phi, frame)
    assert np.array_equal(chain.jacobi(chain.tau).values, chain.tau2.values)
    for fresh, cached in zip(chain.nabla(chain.tau), chain.grad_tau, strict=True):
        assert np.array_equal(fresh.values, cached.values)
    j_lap = chain.lap2_tau.values - chain.curvature(chain.lap_tau).values
    assert np.array_equal(chain.jacobi(chain.lap_tau).values, j_lap)


@pytest.mark.parametrize("metric", ["warped", "induced"])
def test_chain_matches_coordinate_form_connection(metric):
    # correcting by the frame coefficients of nabla_{e_i} e_i, from sections
    # the chain already holds, agrees to roundoff with differentiating along
    # its coordinate components
    phi = build_fixture("TorusCliffordLike", {}, (2, (64, 64), (TWO_PI, TWO_PI)),
                        pf.SpaceFormSpec(-1.0, 3))
    frame = _case_frame(phi, metric)
    assert not frame.zero_connection
    chain = TensionChain(phi, frame)
    expected = _ref_chain(phi, frame, coordinate=True)
    for field in ("tau", "lap_tau", "tau3"):
        got, ref = getattr(chain, field).values, expected[field]
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), field


def _ref_scalar_laplacian(grid, frame, f):
    """scalar_laplacian with every second derivative taken, along axes whose
    frame coefficient is identically zero too."""
    d = grid.dims
    df = [grid.deriv(f, a) for a in range(d)]
    grad = []
    for i in range(d):
        ei_f = np.zeros(grid.shape)
        for a in range(d):
            ei_f += frame.e[..., i, a] * df[a]
        grad.append(ei_f)
    out = np.zeros(grid.shape)
    for i in range(d):
        dei_f = [grid.deriv(grad[i], a) for a in range(d)]
        second = np.zeros(grid.shape)
        for a in range(d):
            second += frame.e[..., i, a] * dei_f[a]
        correction = np.zeros(grid.shape)
        for j in range(d):
            correction += frame.connection[..., i, j] * grad[j]
        out -= second - correction
    return out


def _ref_connection(grid, frame):
    """orthonormal_frame's connection with every coordinate derivative taken."""
    out = np.zeros_like(frame.e)
    if grid.dims == 1:
        return out
    e1, e2 = frame.e[..., 0, :], frame.e[..., 1, :]
    bracket = np.zeros(grid.shape + (2,))
    for a in range(2):
        bracket += e1[..., a, None] * grid.deriv(e2, a)
        bracket -= e2[..., a, None] * grid.deriv(e1, a)
    lowered = np.sum(frame.metric.g * bracket[..., None], axis=-2)
    out[..., 0, 1] = -np.sum(lowered * e1, axis=-1)
    out[..., 1, 0] = np.sum(lowered * e2, axis=-1)
    return out


def _christoffels(grid, g):
    """Gamma^c_ab = 0.5 g^cd (d_a g_db + d_b g_da - d_d g_ab)."""
    dg = np.stack([grid.deriv(g, a) for a in range(grid.dims)], axis=-3)
    lowered = (np.einsum("...adb->...abd", dg) + np.einsum("...bda->...abd", dg)
               - np.einsum("...dab->...abd", dg))
    return 0.5 * np.einsum("...cd,...abd->...abc", np.linalg.inv(g), lowered)


def _christoffel_connection(grid, frame):
    """nabla_{e_i} e_i = e_i(e_i^c) + Gamma^c_ab e_i^a e_i^b in coordinates:
    the route that differentiates and inverts the metric."""
    gamma = _christoffels(grid, frame.metric.g)
    out = np.zeros_like(frame.e)
    for i in range(grid.dims):
        ei = frame.e[..., i, :]
        for a in range(grid.dims):
            out[..., i, :] += ei[..., a, None] * grid.deriv(ei, a)
        out[..., i, :] += np.einsum("...a,...b,...abc->...c", ei, ei, gamma)
    return out


@pytest.mark.parametrize("name,params,grid_args,target,metric", _chain_cases())
def test_div_terms_match_christoffel_route(name, params, grid_args, target, metric):
    phi = build_fixture(name, params, grid_args, target)
    frame = _case_frame(phi, metric)
    ref = _christoffel_connection(phi.grid, frame)
    err = np.max(np.abs(_coordinate_connection(frame) - ref))
    assert err <= 1e-10 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("metric,axes", [("flat", ((0,), (1,))),
                                         ("warped", ((0,), (0, 1)))])
def test_frame_axes_skip_exact_zeros(torus_grid, metric, axes):
    g = pf.identity_metric(torus_grid) if metric == "flat" else warped_metric(torus_grid)
    frame = pf.orthonormal_frame(torus_grid, g)
    assert frame.axes == axes
    assert frame.connection.tobytes() == _ref_connection(torus_grid, frame).tobytes()
    u, v = torus_grid.coords
    f = np.exp(np.sin(u) * np.cos(2 * v))
    expected = _ref_scalar_laplacian(torus_grid, frame, f)
    assert scalar_laplacian(torus_grid, frame, f).tobytes() == expected.tobytes()


def test_map_values_are_read_only(flat_circle):
    # a map's cached coordinate derivatives cannot go stale
    with pytest.raises(ValueError):
        flat_circle.values[0, 0] = 2.0
    with pytest.raises(AttributeError):
        flat_circle.values = flat_circle.values.copy()


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_induced_metric_and_chain_share_the_map_derivatives(monkeypatch, c):
    # d_a phi is taken once per map: the induced metric takes it, and the
    # chain's dphi reads the same arrays without a derivative of its own
    phi = build_fixture("TorusCliffordLike", {}, (2, (32, 32), (TWO_PI, TWO_PI)),
                        pf.SpaceFormSpec(c, 3))
    kinds = record_derivs(monkeypatch)
    metric = pf.induced_metric(phi)
    derivs = phi.coordinate_derivs
    assert len(kinds) == 2
    for a in range(2):
        for b in range(2):
            assert (metric.g[..., a, b].tobytes()
                    == sf.ambient_form(phi.spec, derivs[a], derivs[b]).tobytes())
    frame = pf.orthonormal_frame(phi.grid, metric)
    kinds.clear()
    chain = TensionChain(phi, frame)
    for i, d in enumerate(chain.dphi):
        along = np.zeros_like(derivs[0])
        for a in frame.axes[i]:
            along += frame.e[..., i, a, None] * derivs[a]
        expected = sf.project_tangent(phi.spec, phi.values, along)
        assert d.values.tobytes() == expected.tobytes()
    assert kinds == []
    assert phi.coordinate_derivs is derivs


@pytest.mark.parametrize("metric,expected", [("flat", 12), ("warped", 15)])
def test_chain_deriv_count_2d(monkeypatch, metric, expected):
    # tau3 takes 18 derivatives with both axes in every trace; a trace skips
    # the axes whose frame coefficient is identically zero: e[..., 0, 1]
    # always (Gram-Schmidt), e[..., 1, 0] on the flat frame only
    phi = build_fixture("TorusCliffordLike", {}, (2, (64, 64), (TWO_PI, TWO_PI)),
                        pf.SpaceFormSpec(1.0, 3))
    g = pf.identity_metric(phi.grid) if metric == "flat" else warped_metric(phi.grid)
    frame = pf.orthonormal_frame(phi.grid, g)
    calls = []
    deriv = DomainGrid.deriv

    def counting(self, *args, **kwargs):
        calls.append(1)
        return deriv(self, *args, **kwargs)

    monkeypatch.setattr(DomainGrid, "deriv", counting)
    TensionChain(phi, frame).tau3
    assert len(calls) == expected


def test_chain_projection_count_2d(monkeypatch):
    # tau3 projects each nabla_{e_i} of phi, tau and Delta tau and each of
    # the three traces' derivative sums once: 12 on a 2-d frame; the
    # connection corrections reuse sections the chain holds
    phi = build_fixture("TorusCliffordLike", {}, (2, (64, 64), (TWO_PI, TWO_PI)),
                        pf.SpaceFormSpec(-1.0, 3))
    frame = frame_for(phi)
    assert not frame.zero_connection
    calls = []
    project = sf.project_tangent

    def counting(*args, **kwargs):
        calls.append(1)
        return project(*args, **kwargs)

    monkeypatch.setattr(sf, "project_tangent", counting)
    TensionChain(phi, frame).tau3
    assert len(calls) == 12


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

    calls, transforms = [], []
    deriv, rfft, rfftn = DomainGrid.deriv, np.fft.rfft, np.fft.rfftn

    def counting(self, *args, **kwargs):
        calls.append(1)
        return deriv(self, *args, **kwargs)

    def counting_rfft(*args, **kwargs):
        transforms.append(1)
        return rfft(*args, **kwargs)

    def counting_rfftn(*args, **kwargs):
        transforms.append(1)
        return rfftn(*args, **kwargs)

    monkeypatch.setattr(DomainGrid, "deriv", counting)
    trial = pf.flow_step(chain, cfg, dt=cfg.initial_dt(grid))
    assert trial.accepted
    nxt = trial.chain
    nxt.field(3)
    _trace_metrics(nxt)
    nxt.energy(3)
    assert len(calls) <= 6

    # over a whole flow, each trial's implicit step transforms the descent's
    # frame coefficients once (one rfft on a 1-d grid, counted whether
    # called directly or through rfftn) beyond its derivatives' rffts
    trials = 10
    calls.clear()
    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    monkeypatch.setattr(np.fft, "rfftn", counting_rfftn)
    _, trace = pf.run_flow(phi, pf.FlowConfig(kind="Triharmonic", max_iters=trials,
                                              grad_tol=1e-12))
    assert len(trace.rows) == trials + 1
    assert len(transforms) == len(calls) + trials
