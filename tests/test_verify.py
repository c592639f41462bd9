"""Variation formulas, pointwise audits, cut-off and localized inequality."""

import numpy as np
import pytest

import polyflow as pf
from polyflow import space_form as sf
from polyflow.errors import DegenerateImmersion, NotTriharmonic, RadiusTooLarge
from polyflow.verify import _gradient_sq

from conftest import (build_fixture, builtin_fixture_set, chain_for, frame_for,
                      tangency_residual, warped_metric)

TWO_PI = 2 * np.pi

# central-difference residuals decay at O(t^2) unless the energy is exactly
# polynomial along the variation (flat targets), where they sit at roundoff
FD_FLOOR = 1e-9


def richardson_ok(r_t, r_half):
    if r_half <= FD_FLOOR:
        return True
    return 3.5 <= r_t / r_half <= 4.5


def test_vary_zero_returns_same(flat_circle):
    V = pf.random_tangent_section(flat_circle, seed=0)
    out = pf.vary(flat_circle, V, 0.0)
    np.testing.assert_array_equal(out.values, flat_circle.values)


def test_vary_flat_is_addition(flat_circle):
    V = pf.random_tangent_section(flat_circle, seed=1)
    out = pf.vary(flat_circle, V, 0.25)
    np.testing.assert_allclose(out.values, flat_circle.values + 0.25 * V)


def test_vary_radial_family(flat_circle):
    frame = frame_for(flat_circle)
    tau = pf.tension(flat_circle, frame)
    out = pf.vary(flat_circle, tau, 0.1)
    np.testing.assert_allclose(out.values, 0.9 * flat_circle.values, atol=1e-14)


def test_vary_stays_on_model(circle_grid):
    phi = pf.builtin_map("Circle", {"r": 0.6}, circle_grid, pf.SpaceFormSpec(-1.0, 2))
    V = pf.random_tangent_section(phi, seed=2)
    out = pf.vary(phi, V, 0.3)
    assert out.constraint_residual() <= 1e-12


def test_first_variation_circle_tritension(flat_circle):
    # closed form: E3 along the radial family is pi (1 - t)^2, slope -2 pi;
    # the analytic side pairs tau3 = tau against V = tau
    chain = chain_for(flat_circle, induced=False)
    frame, tau, tau3 = chain.frame, chain.tau, chain.tau3
    analytic = -pf.integrate(frame, sf.ambient_form(flat_circle.spec, tau3, tau))
    assert analytic == pytest.approx(-TWO_PI, abs=1e-10)
    resid = pf.first_variation_residual(chain, tau, 3, 1e-3)
    assert resid <= 1e-4


def test_first_variation_zero_section(flat_circle):
    V = np.zeros_like(flat_circle.values)
    chain = chain_for(flat_circle, induced=False)
    assert pf.first_variation_residual(chain, V, 1, 1e-3) == 0.0


def test_first_variation_geodesic_critical(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    chain = chain_for(phi, induced=False)
    V = pf.random_tangent_section(phi, seed=3)
    assert pf.first_variation_residual(chain, V, 1, 1e-4) <= 1e-6


CURVED_ISOMETRIC_CASES = [
    ("Circle", {"r": 0.9}, 1, pf.SpaceFormSpec(1.0, 2)),
    ("Circle", {"r": 0.3}, 1, pf.SpaceFormSpec(-1.0, 2)),
    ("TorusCliffordLike", {}, 2, pf.SpaceFormSpec(1.0, 3)),
    ("TorusCliffordLike", {}, 2, pf.SpaceFormSpec(-1.0, 3)),
]


@pytest.mark.parametrize("name,params,dims,target", CURVED_ISOMETRIC_CASES,
                         ids=["S2-circle", "H2-circle", "S3-torus", "H3-torus"])
def test_variation_checks_on_a_fixed_induced_frame(name, params, dims, target):
    # the variation formulas need the frame held fixed along the variation,
    # not a flat one: on the induced frame of the unvaried map every check
    # meets its VariationCheck tolerance and decays at O(t^2) (ratios 3.9 to
    # 4.4 at seed 0)
    n = 256 if dims == 1 else 32
    phi = build_fixture(name, params, (dims, (n,) * dims, (TWO_PI,) * dims), target)
    chain = chain_for(phi)
    assert chain.isometry_defect == 0.0
    residuals = {}
    for k in (1, 2, 3):
        V = pf.random_tangent_section(phi, seed=k)
        residuals[k, 1e-4] = [pf.first_variation_residual(chain, V, k, t)
                              for t in (1e-3, 5e-4)]
    V = pf.random_tangent_section(phi, seed=7)
    residuals["tension", 1e-3] = [pf.tension_variation_residual(chain, V, t)
                                  for t in (1e-3, 5e-4)]
    for (check, tol), (r_t, r_half) in residuals.items():
        assert r_t <= tol, check
        assert 3.5 <= r_t / r_half <= 4.5, check


@pytest.mark.parametrize("k", [0, 4])
def test_tension_order_outside_one_to_three_rejected(flat_circle, k):
    chain = chain_for(flat_circle, induced=False)
    with pytest.raises(ValueError):
        chain.field(k)
    with pytest.raises(ValueError):
        chain.energy(k)
    with pytest.raises(ValueError):
        pf.first_variation_residual(chain, chain.tau, k, 1e-3)


@pytest.mark.parametrize("target", [pf.SpaceFormSpec(1.0, 2),
                                    pf.SpaceFormSpec(-1.0, 2)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_first_variation_curved_richardson(circle_grid, target, k):
    phi = pf.builtin_map("Circle", {"r": 0.9}, circle_grid, target)
    chain = chain_for(phi, induced=False)
    V = pf.random_tangent_section(phi, seed=17 + k)
    r_t = pf.first_variation_residual(chain, V, k, 1e-3)
    r_half = pf.first_variation_residual(chain, V, k, 5e-4)
    assert r_t <= 1e-4
    assert richardson_ok(r_t, r_half)


def test_tension_variation_flat_projected_sine(flat_circle):
    s = flat_circle.grid.coords[0]
    V = np.stack([np.zeros_like(s), np.sin(s)], -1)
    chain = chain_for(flat_circle, induced=False)
    assert pf.tension_variation_residual(chain, V, 1e-3) <= 1e-3


def test_tension_variation_zero_section(flat_circle):
    V = np.zeros_like(flat_circle.values)
    chain = chain_for(flat_circle, induced=False)
    assert pf.tension_variation_residual(chain, V, 1e-3) <= 1e-14


def test_tension_variation_curved_richardson(circle_grid):
    phi = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.05, "k": 3},
                         circle_grid, pf.SpaceFormSpec(-1.0, 2))
    chain = chain_for(phi, induced=False)
    V = pf.random_tangent_section(phi, seed=42)
    r_t = pf.tension_variation_residual(chain, V, 1e-3)
    r_half = pf.tension_variation_residual(chain, V, 5e-4)
    assert r_t <= 1e-3
    assert richardson_ok(r_t, r_half)


@pytest.mark.parametrize("name,params,grid_args,target", builtin_fixture_set())
def test_identity_audit_builtin(name, params, grid_args, target):
    phi = build_fixture(name, params, grid_args, target)
    try:
        frame = frame_for(phi)
    except DegenerateImmersion:
        frame = frame_for(phi, induced=False)
    report = pf.pointwise_identity_audit(pf.TensionChain(phi, frame), seed=0)
    assert report.passed, report.to_dict()
    kato = report.checks["kato_tension"]
    assert kato.nodes_failed == 0
    if target.c <= 0.0:
        assert report.checks["curvature_sign"].max_residual <= 1e-10


STENCIL_AUDIT_MAPS = [
    ("Circle", {"r": 0.8}, 1, pf.SpaceFormSpec(-1.0, 2)),
    ("Circle", {"r": 0.9}, 1, pf.SpaceFormSpec(1.0, 2)),
    ("TorusCliffordLike", {}, 2, pf.SpaceFormSpec(1.0, 3)),
    ("TorusCliffordLike", {}, 2, pf.SpaceFormSpec(-1.0, 3)),
]

# CentralFD4 on the H^3 tube torus: the Bochner residual falls at fourth order
# (1.09, 8.3e-2, 5.4e-3, 3.4e-4 at 32^2 to 256^2) but stays 1.5 to 1.93 times
# its tolerance 2 h^4 (1 + max|<tau, Delta tau>| + max|nabla tau|^2)
_FD4_H3_TORUS = pytest.mark.xfail(
    strict=True, reason="CentralFD4 Bochner residual on the H^3 torus is 1.5-1.93x "
    "its scheme tolerance at 32^2 to 256^2")


@pytest.mark.parametrize("kind", ["CentralFD2", "CentralFD4"])
@pytest.mark.parametrize("name,params,dims,target", STENCIL_AUDIT_MAPS,
                         ids=["H2-circle", "S2-circle", "S3-torus", "H3-torus"])
def test_identity_audit_on_stencil_backends(request, kind, name, params, dims, target):
    # the backends' own scheme tolerances (2 h^2 and 2 h^4), on the induced frame
    if kind == "CentralFD4" and target.c < 0.0 and dims == 2:
        request.applymarker(_FD4_H3_TORUS)
    n = 256 if dims == 1 else 64
    phi = build_fixture(name, params, (dims, (n,) * dims, (TWO_PI,) * dims), target, kind)
    report = pf.pointwise_identity_audit(chain_for(phi))
    assert report.passed, report.to_dict()


def test_audit_orthogonality_skipped_without_isometry(circle_grid):
    # the flat frame is not isometric for a circle of radius 0.9 (|g - r^2|
    # = 0.19), so the orthogonality identity does not apply
    phi = pf.builtin_map("Circle", {"r": 0.9}, circle_grid, pf.SpaceFormSpec(0.0, 2))
    chain = chain_for(phi, induced=False)
    assert chain.isometry_defect == pytest.approx(0.19)
    report = pf.pointwise_identity_audit(chain)
    assert report.checks["tension_orthogonality"].skipped
    assert report.passed


def test_audit_orthogonality_runs_on_an_isometric_flat_frame(flat_circle):
    # the unit circle on a 2 pi period is isometric on the flat frame too,
    # so the check runs there, whichever function built the metric
    chain = chain_for(flat_circle, induced=False)
    assert chain.isometry_defect <= 1e-12
    check = pf.pointwise_identity_audit(chain).checks["tension_orthogonality"]
    assert not check.skipped
    assert check.max_residual <= 1e-8


def test_audit_circle_orthogonality_residual(flat_circle):
    report = pf.pointwise_identity_audit(chain_for(flat_circle, induced=True))
    check = report.checks["tension_orthogonality"]
    assert not check.skipped
    assert check.max_residual <= 1e-8


def test_audit_circle_bochner(flat_circle):
    # |tau| constant: <tau, lap tau> = 1, Delta |tau|^2 = 0, |grad tau|^2 = 1
    report = pf.pointwise_identity_audit(chain_for(flat_circle, induced=True))
    assert report.checks["bochner_identity"].max_residual <= 1e-10


def test_cutoff_plateau_and_support(circle_grid):
    r = TWO_PI / 8
    cut = pf.cutoff(circle_grid, (64,), r)
    d = cut.distance
    assert np.all(cut.eta[d <= r] == 1.0)
    assert np.all(cut.eta[d >= 2 * r] == 0.0)
    assert np.all((0.0 <= cut.eta) & (cut.eta <= 1.0))


@pytest.mark.parametrize("dims", [1, 2])
def test_cutoff_gradient_bound(dims):
    if dims == 1:
        grid = pf.build_grid(pf.GridSpec(1, (256,), (TWO_PI,)))
        center = (128,)
    else:
        grid = pf.build_grid(pf.GridSpec(2, (64, 64), (TWO_PI, TWO_PI)))
        center = (32, 32)
    r = TWO_PI / 8
    cut = pf.cutoff(grid, center, r)
    frame = pf.orthonormal_frame(grid, pf.identity_metric(grid))
    along = frame.along([grid.deriv(cut.eta, a) for a in range(grid.dims)])
    grad = np.sqrt(np.sum(np.stack(along, axis=-1) ** 2, axis=-1))
    assert np.max(grad) <= 2.0 / r


def test_cutoff_field_needs_its_distance(circle_grid):
    # ball_mask reads the distance, so a CutoffField cannot be built without
    # one; built by hand with it, its ball is the one cutoff gives
    cut = pf.cutoff(circle_grid, (64,), TWO_PI / 8)
    with pytest.raises(TypeError, match="distance"):
        pf.CutoffField(eta=cut.eta, center=cut.center, r=cut.r)
    by_hand = pf.CutoffField(eta=cut.eta, center=cut.center, r=cut.r,
                             distance=cut.distance)
    assert np.array_equal(by_hand.ball_mask(), cut.ball_mask())
    assert by_hand.ball_mask().sum() > 0


def test_cutoff_radius_too_large(circle_grid):
    with pytest.raises(RadiusTooLarge):
        pf.cutoff(circle_grid, (0,), TWO_PI / 3)


@pytest.mark.parametrize("dims,center,r", [
    (1, (0,), 0.0),
    (1, (0,), -0.3),
    (1, (256,), 0.5),
    (1, (-1,), 0.5),
    (1, (3.7,), 0.5),
    (1, (0, 0), 0.5),
    (1, (True,), 0.5),
    (1, (np.inf,), 0.5),
    (2, (3.7, 3), 0.5),
    (2, (1,), 0.5),
    (2, (3, 64), 0.5),
])
def test_cutoff_rejects_bad_center_and_radius(circle_grid, torus_grid, dims, center, r):
    # one whole-number node index per axis, in [0, n), and r > 0; a NaN r
    # is still a RadiusTooLarge
    grid = circle_grid if dims == 1 else torus_grid
    with pytest.raises(ValueError):
        pf.cutoff(grid, center, r)
    with pytest.raises(RadiusTooLarge):
        pf.cutoff(grid, (0,) * dims, np.nan)
    cut = pf.cutoff(grid, (3.0,) * dims, 0.5)
    assert cut.center == (3,) * dims and all(type(c) is int for c in cut.center)


@pytest.mark.parametrize("t", [0.0, -0.0, np.nan, np.inf])
def test_variation_residuals_reject_a_zero_or_nonfinite_step(circle_grid, t):
    phi = pf.builtin_map("Circle", {"r": 0.6}, circle_grid, pf.SpaceFormSpec(-1.0, 2))
    chain = chain_for(phi, induced=False)
    V = pf.random_tangent_section(phi, seed=4)
    with pytest.raises(ValueError):
        pf.first_variation_residual(chain, V, 1, t)
    with pytest.raises(ValueError):
        pf.tension_variation_residual(chain, V, t)


@pytest.mark.parametrize("dims", [1, 2])
def test_gradient_sq_matches_numpy_sum(circle_grid, torus_grid, dims):
    # the component-by-component |grad f|^2 of the Kato and Caccioppoli
    # checks keeps the bits of numpy's reduction over the component axis
    grid = circle_grid if dims == 1 else torus_grid
    if dims == 1:
        metric = (1.0 + 0.3 * np.sin(grid.coords[0]) ** 2)[:, None, None]
    else:
        metric = warped_metric(grid)
    frame = pf.orthonormal_frame(grid, metric)
    f = np.exp(np.sin(grid.coords[0]) * np.cos(2 * grid.coords[-1]))
    along = frame.along([grid.deriv(f, a) for a in range(grid.dims)])
    expected = np.sum(np.stack(along, axis=-1) ** 2, axis=-1)
    assert _gradient_sq(grid, frame, f).tobytes() == expected.tobytes()


def test_caccioppoli_geodesic_margin(circle_grid):
    spec = pf.SpaceFormSpec(-1.0, 2)
    phi = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.0, "k": 3},
                         circle_grid, spec)
    cut = pf.cutoff(circle_grid, (128,), TWO_PI / 8)
    margin = pf.caccioppoli_audit(chain_for(phi, induced=False), cut, 0.5)
    assert margin >= -1e-8


def test_caccioppoli_preconditions(circle_grid, flat_circle):
    cut = pf.cutoff(circle_grid, (128,), TWO_PI / 8)
    with pytest.raises(NotTriharmonic):  # tau3 != 0
        pf.caccioppoli_audit(chain_for(flat_circle, induced=False), cut, 0.5)
    sphere = pf.builtin_map("GreatCircleS2", {}, circle_grid,
                            pf.SpaceFormSpec(1.0, 2))
    with pytest.raises(NotTriharmonic):
        pf.caccioppoli_audit(chain_for(sphere, induced=False), cut, 0.5)
    geo = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.0, "k": 3},
                         circle_grid, pf.SpaceFormSpec(-1.0, 2))
    with pytest.raises(ValueError):
        pf.caccioppoli_audit(chain_for(geo, induced=False), cut, 1.5)


def test_ambient_commutator_matches_curvature(torus_grid):
    # commuting coordinate derivatives pick up exactly the target curvature:
    # D_u D_v W - D_v D_u W = R(d_u phi, d_v phi) W
    phi = build_fixture("TorusCliffordLike", {"alpha": np.pi / 5},
                        (2, (64, 64), (TWO_PI, TWO_PI)), pf.SpaceFormSpec(1.0, 3))
    grid, spec = phi.grid, phi.spec
    W = pf.random_tangent_section(phi, seed=9)
    floor = phi.spectral_floor

    def D(values, axis):
        return sf.project_tangent(spec, phi.values,
                                  grid.deriv(values, axis, floor=floor))

    lhs = D(D(W, 1), 0) - D(D(W, 0), 1)
    du = grid.deriv(phi.values, 0, floor=floor)
    dv = grid.deriv(phi.values, 1, floor=floor)
    rhs = sf.curvature_op(spec, du, dv, W)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_ambient_commutator_fd2_order():
    errs = []
    for n in (16, 32):
        phi = build_fixture("TorusCliffordLike", {"alpha": np.pi / 5},
                            (2, (n, n), (TWO_PI, TWO_PI)),
                            pf.SpaceFormSpec(1.0, 3), differentiation="CentralFD2")
        grid, spec = phi.grid, phi.spec
        u, v = grid.coords
        W = sf.project_tangent(spec, phi.values,
                               np.stack([np.sin(u), np.cos(v),
                                         np.sin(u + v), np.cos(u)], axis=-1))

        def D(values, axis):
            return sf.project_tangent(spec, phi.values, grid.deriv(values, axis))

        lhs = D(D(W, 1), 0) - D(D(W, 0), 1)
        rhs = sf.curvature_op(spec, grid.deriv(phi.values, 0),
                              grid.deriv(phi.values, 1), W)
        errs.append(np.max(np.abs(lhs - rhs)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.5


def test_random_tangent_section_properties(circle_grid):
    phi = pf.builtin_map("Circle", {"r": 0.5}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    V = pf.random_tangent_section(phi, seed=7)
    assert tangency_residual(phi, V) <= 1e-12
    assert np.max(sf.norm(phi.spec, V)) == pytest.approx(0.3, rel=1e-12)
    V2 = pf.random_tangent_section(phi, seed=7)
    np.testing.assert_array_equal(V, V2)
