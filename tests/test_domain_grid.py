"""Grids, metrics, frames, and integration."""

import numpy as np
import pytest

import polyflow as pf
from polyflow.domain_grid import (SPECTRAL_REL_CUTOFF, scalar_gradient,
                                  scalar_laplacian)
from polyflow.errors import DegenerateImmersion, DegenerateMetric, InvalidSpec

TWO_PI = 2 * np.pi


def test_build_grid_circle():
    grid = pf.build_grid(pf.GridSpec(1, (256,), (TWO_PI,)))
    assert grid.shape == (256,)
    assert grid.spacings[0] == pytest.approx(TWO_PI / 256)


def test_build_grid_torus():
    grid = pf.build_grid(pf.GridSpec(2, (64, 64), (TWO_PI, TWO_PI)))
    assert grid.shape == (64, 64)
    assert grid.node_count == 4096


def test_build_grid_too_small():
    with pytest.raises(InvalidSpec):
        pf.GridSpec(1, (8,), (TWO_PI,))


def test_build_grid_bad_dims():
    with pytest.raises(InvalidSpec):
        pf.GridSpec(3, (16, 16, 16), (1.0, 1.0, 1.0))
    with pytest.raises(InvalidSpec):
        pf.GridSpec(2, (32,), (1.0, 1.0))


@pytest.mark.parametrize("length", [float("nan"), float("inf"), 0.0, -1.0])
def test_build_grid_bad_lengths(length):
    with pytest.raises(InvalidSpec):
        pf.GridSpec(1, (64,), (length,))


@pytest.mark.parametrize(
    "kind,tol",
    [("Spectral", 1e-12), ("CentralFD4", 1e-4), ("CentralFD2", 2e-2)],
)
def test_deriv_backends_on_sine(kind, tol):
    grid = pf.build_grid(pf.GridSpec(1, (64,), (TWO_PI,), kind))
    s = grid.axes[0]
    df = grid.deriv(np.sin(3 * s), 0)
    assert np.max(np.abs(df - 3 * np.cos(3 * s))) <= 9 * tol


def test_deriv_2d_axes():
    grid = pf.build_grid(pf.GridSpec(2, (32, 32), (TWO_PI, TWO_PI)))
    u, v = grid.coords
    f = np.sin(u) * np.cos(2 * v)
    du = grid.deriv(f, 0)
    dv = grid.deriv(f, 1)
    assert np.max(np.abs(du - np.cos(u) * np.cos(2 * v))) <= 1e-12
    assert np.max(np.abs(dv + 2 * np.sin(u) * np.sin(2 * v))) <= 1e-12


def _uncached_spectral_deriv(grid, values, axis, floor=0.0):
    """The spectral derivative with its symbol rebuilt on every call."""
    fh = np.fft.rfft(values, axis=axis)
    amp = np.max(np.abs(fh), axis=axis, keepdims=True)
    cutoff = np.maximum(SPECTRAL_REL_CUTOFF * amp, floor)
    fh[np.abs(fh) < cutoff] = 0.0
    k = grid._wavenumbers[axis]
    shape = [1] * fh.ndim
    shape[axis] = k.size
    return np.fft.irfft(1j * k.reshape(shape) * fh, n=values.shape[axis], axis=axis)


@pytest.mark.parametrize("sizes", [(64,), (32, 48)])
@pytest.mark.parametrize("reverse", [False, True])
def test_deriv_cached_symbol_bit_equal(sizes, reverse):
    # the symbol cache must serve each (axis, field rank) its own shape, in
    # whatever order the shapes are first seen
    rng = np.random.default_rng(5)
    grid = pf.build_grid(pf.GridSpec(len(sizes), sizes, (TWO_PI,) * len(sizes)))
    fields = [rng.standard_normal(grid.shape + extra) for extra in ((), (3,), (2, 2))]
    calls = [(f, a) for f in fields for a in range(grid.dims)]
    for f, a in (calls[::-1] if reverse else calls) * 2:
        for floor in (0.0, 0.5):
            expected = _uncached_spectral_deriv(grid, f, a, floor)
            assert grid.deriv(f, a, floor=floor).tobytes() == expected.tobytes()


def _complex_fft_deriv(grid, values, axis, floor=0.0):
    """The spectral derivative over the full complex spectrum: the reference
    the real-input (rfft/irfft) derivative must match to roundoff."""
    n = grid.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacings[axis])
    if n % 2 == 0:
        k[n // 2] = 0.0
    fh = np.fft.fft(values, axis=axis)
    amp = np.max(np.abs(fh), axis=axis, keepdims=True)
    fh[np.abs(fh) < np.maximum(SPECTRAL_REL_CUTOFF * amp, floor)] = 0.0
    shape = [1] * fh.ndim
    shape[axis] = n
    return np.real(np.fft.ifft(1j * k.reshape(shape) * fh, axis=axis))


@pytest.mark.parametrize("sizes", [(17,), (64,), (33, 24), (32, 48)])
@pytest.mark.parametrize("floor", [0.0, 0.5])
def test_deriv_matches_complex_fft(sizes, floor):
    rng = np.random.default_rng(11)
    grid = pf.build_grid(pf.GridSpec(len(sizes), sizes, (TWO_PI,) * len(sizes)))
    for extra in ((), (3,), (2, 2)):
        f = rng.standard_normal(grid.shape + extra)
        for a in range(grid.dims):
            expected = _complex_fft_deriv(grid, f, a, floor)
            err = np.max(np.abs(grid.deriv(f, a, floor=floor) - expected))
            assert err <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [16, 64])
def test_deriv_nyquist_mode_is_zero(n):
    # the Nyquist mode has no usable phase for a first derivative
    grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI,)))
    assert not np.any(grid.deriv(np.cos(n // 2 * grid.axes[0]), 0))


def test_induced_metric_arc_length_circle(flat_circle):
    metric = pf.induced_metric(flat_circle)
    assert metric.mode is pf.MetricMode.INDUCED
    np.testing.assert_allclose(metric.g[..., 0, 0], 1.0, atol=1e-12)


def test_induced_metric_product_torus(torus_grid):
    spec = pf.SpaceFormSpec(0.0, 4)
    phi = pf.builtin_map(
        "TorusCliffordLike", {"r1": 1.0, "r2": 1.0}, torus_grid, spec
    )
    metric = pf.induced_metric(phi)
    expected = np.broadcast_to(np.eye(2), metric.g.shape)
    np.testing.assert_allclose(metric.g, expected, atol=1e-12)


def test_induced_metric_constant_map_degenerate(circle_grid):
    spec = pf.SpaceFormSpec(-1.0, 2)
    phi = pf.builtin_map(
        "PerturbedGeodesicH2", {"amplitude": 0.0, "k": 1}, circle_grid, spec
    )
    with pytest.raises(DegenerateImmersion):
        pf.induced_metric(phi)


def test_orthonormal_frame_identity(torus_grid):
    frame = pf.orthonormal_frame(torus_grid, pf.identity_metric(torus_grid))
    expected = np.broadcast_to(np.eye(2), frame.e.shape)
    np.testing.assert_allclose(frame.e, expected, atol=1e-14)
    np.testing.assert_allclose(frame.div_terms, 0.0, atol=1e-14)
    np.testing.assert_allclose(frame.vol, 1.0, atol=1e-14)


def test_orthonormal_frame_constant_diag(torus_grid):
    g = np.zeros(torus_grid.shape + (2, 2))
    g[..., 0, 0] = 4.0
    g[..., 1, 1] = 1.0
    frame = pf.orthonormal_frame(torus_grid, pf.prescribed_metric(torus_grid, g))
    np.testing.assert_allclose(frame.e[..., 0, 0], 0.5, atol=1e-14)
    np.testing.assert_allclose(frame.e[..., 1, 1], 1.0, atol=1e-14)
    np.testing.assert_allclose(frame.div_terms, 0.0, atol=1e-12)
    np.testing.assert_allclose(frame.vol, 2.0, atol=1e-14)


@pytest.mark.parametrize("kind", ["Spectral", "CentralFD2", "CentralFD4"])
def test_circle_frame_has_zero_div_terms(kind):
    # a unit field on a curve is parallel along itself: on a non-constant
    # 1-d metric the connection terms are exact zeros, not roundoff
    grid = pf.build_grid(pf.GridSpec(1, (64,), (TWO_PI,), kind))
    g = (1.0 + 0.3 * np.sin(grid.axes[0]) ** 2)[..., None, None]
    frame = pf.orthonormal_frame(grid, pf.prescribed_metric(grid, g))
    assert not np.any(frame.div_terms)
    assert frame.zero_div_terms


def test_orthonormal_frame_orthonormality():
    # frame of a genuinely curved induced metric is g-orthonormal nodewise
    grid = pf.build_grid(pf.GridSpec(2, (48, 48), (TWO_PI, TWO_PI)))
    phi = pf.builtin_map("GraphSurface", {}, grid, pf.SpaceFormSpec(0.0, 5))
    metric = pf.induced_metric(phi)
    frame = pf.orthonormal_frame(grid, metric)
    gram = np.einsum("...ia,...ab,...jb->...ij", frame.e, metric.g, frame.e)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape),
                               atol=1e-10)


def test_degenerate_metric_rejected(circle_grid):
    g = np.zeros(circle_grid.shape + (1, 1))
    with pytest.raises(DegenerateMetric):
        pf.orthonormal_frame(circle_grid, pf.prescribed_metric(circle_grid, g))


def test_nan_metric_rejected(torus_grid):
    # NaN fails every comparison, so a guard of the form "reject if g is
    # too small" would let a NaN metric through
    g = np.full(torus_grid.shape + (2, 2), np.nan)
    with pytest.raises(DegenerateMetric):
        pf.orthonormal_frame(torus_grid, pf.prescribed_metric(torus_grid, g))
    phi = pf.builtin_map("TorusCliffordLike", {"r1": 1.0, "r2": 1.0}, torus_grid,
                         pf.SpaceFormSpec(0.0, 4))
    phi.values[3, 5, 0] = np.nan
    with pytest.warns(RuntimeWarning), pytest.raises(DegenerateImmersion):
        pf.induced_metric(phi)


def test_integrate_total_volume(circle_grid):
    frame = pf.orthonormal_frame(circle_grid, pf.identity_metric(circle_grid))
    assert pf.integrate(circle_grid, frame, np.ones(circle_grid.shape)) == (
        pytest.approx(TWO_PI, abs=1e-12)
    )


def test_integrate_cos_squared(circle_grid):
    frame = pf.orthonormal_frame(circle_grid, pf.identity_metric(circle_grid))
    f = np.cos(circle_grid.axes[0]) ** 2
    assert pf.integrate(circle_grid, frame, f) == pytest.approx(np.pi, abs=1e-12)


def test_integrate_torus(torus_grid):
    frame = pf.orthonormal_frame(torus_grid, pf.identity_metric(torus_grid))
    total = pf.integrate(torus_grid, frame, np.ones(torus_grid.shape))
    assert total == pytest.approx(4 * np.pi**2, abs=1e-10)


def test_scalar_laplacian_sign(circle_grid):
    # positive convention: Delta f = -f'' on the flat circle
    frame = pf.orthonormal_frame(circle_grid, pf.identity_metric(circle_grid))
    s = circle_grid.axes[0]
    lap = scalar_laplacian(circle_grid, frame, np.sin(2 * s))
    assert np.max(np.abs(lap - 4 * np.sin(2 * s))) <= 1e-10


@pytest.mark.parametrize("kind,n,tol", [("Spectral", 64, 1e-10),
                                        ("CentralFD2", 64, 0.2)])
def test_integration_by_parts(kind, n, tol):
    grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI,), kind))
    frame = pf.orthonormal_frame(grid, pf.identity_metric(grid))
    s = grid.axes[0]
    u = np.sin(s) + 0.3 * np.cos(2 * s)
    w = np.cos(3 * s)
    lhs = pf.integrate(grid, frame, u * scalar_laplacian(grid, frame, w))
    gu = scalar_gradient(grid, frame, u)
    gw = scalar_gradient(grid, frame, w)
    rhs = pf.integrate(grid, frame, np.sum(gu * gw, axis=-1))
    assert abs(lhs - rhs) <= tol


@pytest.mark.parametrize("kind", ["Spectral", "CentralFD2", "CentralFD4"])
def test_integration_by_parts_curved_metric(kind):
    # central stencils satisfy discrete summation by parts, so the residual
    # sits at or below the scheme tolerance even for non-flat metrics
    for n in (64, 128):
        grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI,), kind))
        s = grid.axes[0]
        g = ((1.0 + 0.3 * np.sin(s)) ** 2)[..., None, None]
        frame = pf.orthonormal_frame(grid, pf.prescribed_metric(grid, g))
        u, w = np.sin(s), np.cos(3 * s)
        lhs = pf.integrate(grid, frame, u * scalar_laplacian(grid, frame, w))
        gu = scalar_gradient(grid, frame, u)
        gw = scalar_gradient(grid, frame, w)
        rhs = pf.integrate(grid, frame, np.sum(gu * gw, axis=-1))
        h = grid.spacings[0]
        tol = 1e-10 if kind == "Spectral" else 2.0 * h**2
        assert abs(lhs - rhs) <= tol


def test_periodic_distance_wraps():
    grid = pf.build_grid(pf.GridSpec(1, (16,), (16.0,)))
    d = grid.periodic_distance((0,))
    assert d[1] == pytest.approx(1.0)
    assert d[15] == pytest.approx(1.0)
    assert d.max() == pytest.approx(8.0)
