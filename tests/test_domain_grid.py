"""Grids, metrics, frames, and integration."""

import math
import struct

import numpy as np
import pytest

import polyflow as pf
from polyflow import domain_grid
from polyflow.domain_grid import (FRAME_REL_TOL, FSUM_MAX_TERMS, SPECTRAL_REL_CUTOFF,
                                  _det2, _min_eigenvalue, exact_sum, laplace_beltrami,
                                  real_number)
from polyflow.errors import DegenerateImmersion, DegenerateMetric, InvalidSpec

from conftest import (builtin_fixture_set, components_outermost, frame_arrays,
                      record_derivs, warped_metric)

TWO_PI = 2 * np.pi


def test_build_grid_circle():
    grid = pf.build_grid(pf.GridSpec(1, (256,), (TWO_PI,)))
    assert grid.shape == (256,)
    assert grid.spacings[0] == pytest.approx(TWO_PI / 256)


def test_build_grid_torus():
    grid = pf.build_grid(pf.GridSpec(2, (64, 64), (TWO_PI, TWO_PI)))
    assert grid.shape == (64, 64)


@pytest.mark.parametrize("dims", [1, 2])
def test_grid_angles_turn_once_per_period(dims):
    grid = pf.build_grid(pf.GridSpec(dims, (32, 48)[:dims], (TWO_PI, 3.0)[:dims]))
    angles = grid.angles
    assert len(angles) == dims
    for a in range(dims):
        expected = 2.0 * np.pi * grid.coords[a] / grid.spec.lengths[a]
        assert angles[a].tobytes() == expected.tobytes()
    assert grid.angles[0] is not angles[0]  # formed anew, not cached


def test_build_grid_too_small():
    with pytest.raises(InvalidSpec):
        pf.GridSpec(1, (8,), (TWO_PI,))


def test_build_grid_bad_dims():
    with pytest.raises(InvalidSpec):
        pf.GridSpec(3, (16, 16, 16), (1.0, 1.0, 1.0))
    with pytest.raises(InvalidSpec):
        pf.GridSpec(2, (32,), (1.0, 1.0))


@pytest.mark.parametrize("value", [None, 1 + 0j, np.complex128(1.0), [1.0], (2.0,),
                                   "1.0", True, np.True_])
def test_real_number_rejects_what_is_not_a_real(value):
    # as whole_number does: a ValueError, never float()'s TypeError
    with pytest.raises(ValueError, match="real number"):
        real_number(value, "x")
    with pytest.raises(ValueError, match="real number"):
        pf.SpaceFormSpec(value, 2)
    with pytest.raises(ValueError, match="real number"):
        pf.GridSpec(1, (16,), (value,))
    assert real_number(np.float32(0.5), "x") == 0.5 and real_number(3, "x") == 3.0


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
    s = grid.coords[0]
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


def _band_limited(grid, components, rng):
    """A few trigonometric modes (|m| <= 4 per axis) per component: most of
    its Fourier coefficients are roundoff, as in a map's derivatives."""
    u, v = grid.coords
    f = np.zeros(grid.shape + (components,))
    for c in range(components):
        for _ in range(3):
            m0, m1 = rng.integers(-4, 5, size=2)
            f[..., c] += rng.standard_normal() * np.cos(m0 * u + m1 * v
                                                       + rng.uniform(0.0, TWO_PI))
    return f


def _decaying(grid, components):
    """exp of a trigonometric field per component: its spectrum decays
    geometrically through the cutoff, so each line's max decides the mask."""
    u, v = grid.coords
    return np.stack([np.exp(0.9 * np.sin(u + 0.7 * c) * np.cos(v - 0.3 * c)
                            + 0.2 * c * np.cos(u)) for c in range(components)], axis=-1)


@pytest.mark.parametrize("sizes", [(32, 48), (33, 24)])
@pytest.mark.parametrize("components", [4, 2])
@pytest.mark.parametrize("kind", ["band_limited", "decaying"])
def test_deriv_bit_equal_on_smooth_fields(sizes, components, kind):
    # lines along the middle node axis, transformed after a move to the last
    # axis, and the masked zeroing keep every bit where most coefficients
    # are masked as noise (a random normal field masks almost none), and
    # where the mask depends on each line's max
    grid = pf.build_grid(pf.GridSpec(2, sizes, (TWO_PI, TWO_PI)))
    if kind == "band_limited":
        f = _band_limited(grid, components, np.random.default_rng(7))
    else:
        f = _decaying(grid, components)
    map_floor = SPECTRAL_REL_CUTOFF * max(1.0, float(np.max(np.abs(f))))
    for floor in (0.0, map_floor):
        for a in range(grid.dims):
            mag = np.abs(np.fft.rfft(f, axis=a))
            cutoff = np.maximum(SPECTRAL_REL_CUTOFF * np.max(mag, axis=a, keepdims=True),
                                floor)
            assert np.mean(mag < cutoff) > (0.75 if kind == "band_limited" else 0.1)
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
    assert not np.any(grid.deriv(np.cos(n // 2 * grid.coords[0]), 0))


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
    # the guard reads the map's own pullback metric, formed once, read only
    assert metric.g is phi.pullback_metric and not metric.g.flags.writeable
    assert pf.induced_metric(phi).g is metric.g


def test_induced_metric_constant_map_degenerate(circle_grid):
    spec = pf.SpaceFormSpec(-1.0, 2)
    phi = pf.builtin_map(
        "PerturbedGeodesicH2", {"amplitude": 0.0, "k": 1}, circle_grid, spec
    )
    with pytest.raises(DegenerateImmersion):
        pf.induced_metric(phi)


@pytest.mark.parametrize("kind", ["Spectral", "CentralFD2", "CentralFD4"])
@pytest.mark.parametrize("grid_args", [(1, (64,), (TWO_PI,)),
                                       (2, (32, 48), (TWO_PI, 2.0))], ids=["1d", "2d"])
def test_derivatives_do_not_depend_on_the_layout(grid_args, kind):
    # deriv and deriv12 of a section give the same bytes on every axis
    # whether it is C-ordered or has its components outermost, with its
    # roundoff-level coefficients cut by the threshold in both
    grid = pf.build_grid(pf.GridSpec(*grid_args, kind))
    rng = np.random.default_rng(1)
    smooth = sum(np.cos(k * angle + rng.uniform(0.0, TWO_PI))
                 for k, angle in enumerate(grid.angles, start=2))
    c_ordered = (smooth[..., None] * rng.standard_normal(4)
                 + 1e-17 * rng.standard_normal(grid.shape + (4,)))
    outermost = domain_grid.components_outermost(c_ordered)
    assert c_ordered.flags.c_contiguous and components_outermost(outermost)
    assert not outermost.flags.c_contiguous
    for a in range(grid.dims):
        for floor in (0.0, 1e-12):
            got = [grid.deriv(outermost, a, floor)] + grid.deriv12(outermost, a, floor)
            expected = [grid.deriv(c_ordered, a, floor)] + grid.deriv12(c_ordered, a, floor)
            assert [g.tobytes() for g in got] == [x.tobytes() for x in expected]


def test_orthonormal_frame_identity(torus_grid):
    frame = pf.orthonormal_frame(torus_grid, pf.identity_metric(torus_grid))
    assert frame.e == frame.G == ((1.0, 0.0), (0.0, 1.0))
    assert frame.B == (0.0, 0.0) and frame.vol == 1.0


def test_orthonormal_frame_constant_diag(torus_grid):
    g = np.zeros(torus_grid.shape + (2, 2))
    g[..., 0, 0] = 4.0
    g[..., 1, 1] = 1.0
    frame = pf.orthonormal_frame(torus_grid, pf.prescribed_metric(torus_grid, g))
    assert frame.e == ((0.5, 0.0), (0.0, 1.0)) and frame.G == ((0.25, 0.0), (0.0, 1.0))
    assert frame.B == (0.0, 0.0) and frame.vol == 2.0


CIRCLE_128 = (1, (128,), (TWO_PI,))
TORUS_128 = (2, (128, 128), (TWO_PI, TWO_PI))


@pytest.mark.parametrize("grid_args,map_args", [
    pytest.param(CIRCLE_128, None, id="flat-1d"),
    pytest.param(TORUS_128, None, id="flat-2d"),
    pytest.param(TORUS_128, ("TorusCliffordLike", {}, pf.SpaceFormSpec(1.0, 3)),
                 id="S3-torus"),
    pytest.param(TORUS_128, ("TorusCliffordLike", {"r1": 1.0, "r2": 0.7},
                             pf.SpaceFormSpec(0.0, 4)), id="R4-torus"),
    pytest.param(CIRCLE_128, ("Circle", {"r": 0.7}, pf.SpaceFormSpec(0.0, 2)),
                 id="circle-R2"),
    pytest.param(CIRCLE_128, ("Circle", {"r": 0.9}, pf.SpaceFormSpec(1.0, 2)),
                 id="circle-S2"),
    pytest.param(CIRCLE_128, ("Circle", {"r": 0.7}, pf.SpaceFormSpec(-1.0, 2)),
                 id="circle-H2"),
])
def test_constant_frames_hold_only_floats(monkeypatch, grid_args, map_args):
    # a metric that is constant to roundoff (flat, the S^3 Clifford and R^4
    # product tori, a constant-speed circle) gives a frame of floats, whose
    # B is 0.0 without a derivative
    grid, dims = pf.build_grid(pf.GridSpec(*grid_args)), grid_args[0]
    if map_args is None:
        metric = pf.identity_metric(grid)
    else:
        metric = pf.induced_metric(pf.builtin_map(*map_args[:2], grid, map_args[2]))
    kinds = record_derivs(monkeypatch)
    frame = pf.orthonormal_frame(grid, metric)
    assert kinds == []
    coeffs = [c for rows in (frame.e, frame.G) for row in rows for c in row]
    assert all(type(c) is float for c in coeffs + [*frame.B, frame.vol])
    assert frame.B == (0.0,) * dims
    assert frame.lb_terms == (False, ()) and frame.axes == ((0,), (1,))[:dims]


@pytest.mark.parametrize("rho", [0.4 + 0.002 * d for d in range(-5, 6)],
                         ids=lambda rho: f"rho{rho:.3f}")
def test_tube_torus_frame_drops_its_roundoff_coefficients(rho):
    # the 128^2 H^3 tube torus of the audit benchmark (a 1, rho 0.39 to 0.41)
    # has g = diag(A(v)^2, sinh^2 rho), but roundoff leaves e_1^0, G^{01}
    # and the B^0 that d_0(sqrt g G^{00}) gives slightly off zero.  Each is
    # below FRAME_REL_TOL times its family's largest |value|, so the frame
    # holds them as 0.0: no d_0 term in e_1, no mixed derivative, no B^0 term
    grid = pf.build_grid(pf.GridSpec(2, (128, 128), (TWO_PI, TWO_PI)))
    phi = pf.builtin_map("TorusCliffordLike", {"a": 1.0, "rho": rho}, grid,
                         pf.SpaceFormSpec(-1.0, 3))
    metric = pf.induced_metric(phi)
    frame = pf.orthonormal_frame(grid, metric)
    assert frame.lb_terms == (False, (1,)) and frame.axes == ((0,), (1,))
    assert frame.e[1][0] == frame.G[0][1] == frame.B[0] == 0.0
    # the values dropped: e_1^0 as Gram-Schmidt forms it, G^{01} as the
    # unclassed e would give it, and B^0 from sqrt g G^{00}
    g = metric.g
    wnorm = np.sqrt(g[..., 1, 1] - g[..., 0, 1] ** 2 / g[..., 0, 0])
    e = [1.0 / np.sqrt(g[..., 0, 0]), -g[..., 0, 1] / g[..., 0, 0] / wnorm, 1.0 / wnorm]
    G = [e[0] * e[0] + e[1] * e[1], e[1] * e[2], e[2] * e[2]]
    B0 = grid.deriv(frame.vol * frame.G[0][0], 0) / frame.vol
    dropped = {"e_1^0": (e[1], e), "G^01": (G[1], G), "B^0": (B0, [B0, frame.B[1]])}
    line = []
    for name, (value, family) in dropped.items():
        tol = FRAME_REL_TOL * max(np.max(np.abs(c)) for c in family)
        size = np.max(np.abs(value))
        assert size <= tol
        margin = tol / size if size else math.inf
        line.append(f"{name} {size:.2e} (tol {tol:.2e}, margin {margin:.3g})")
    print(f"[frame rho {rho:.3f}] " + "; ".join(line))


def _frame_cases():
    """(id, grid, metric): the induced metrics of the built-in maps that
    immerse, on every backend, the warped metric, and the 128^2 H^3 tube
    torus at both ends of rho 0.39 to 0.41."""
    cases = []
    for name, params, (dims, sizes, lengths), target in builtin_fixture_set():
        for kind in ("Spectral", "CentralFD2", "CentralFD4"):
            grid = pf.build_grid(pf.GridSpec(dims, sizes, lengths, kind))
            try:
                metric = pf.induced_metric(pf.builtin_map(name, params, grid, target))
            except DegenerateImmersion:
                continue
            cases.append((f"{name}-c{target.c:g}-{kind}", grid, metric))
    grid = pf.build_grid(pf.GridSpec(*TORUS_128))
    cases.append(("warped", grid, warped_metric(grid)))
    for rho in (0.39, 0.41):
        phi = pf.builtin_map("TorusCliffordLike", {"a": 1.0, "rho": rho}, grid,
                             pf.SpaceFormSpec(-1.0, 3))
        cases.append((f"H3-tube-rho{rho}", grid, pf.induced_metric(phi)))
    return cases


def test_frame_skips_only_derivatives_that_are_zero(monkeypatch):
    # a flux sqrt g G^{ab} constant along a to roundoff is not differentiated
    # along a, on every backend.  Each B^b has the bytes of the frame that
    # takes every such derivative, or is 0.0 where that frame's B^b is
    # roundoff: a stencil's difference quotient of the flux's roundoff.  The
    # spectral derivative it skips is exactly 0, so no spectral B^b changes
    changed = []
    for label, grid, metric in _frame_cases():
        skipping = pf.orthonormal_frame(grid, metric)
        with monkeypatch.context() as m:
            m.setattr(domain_grid, "_constant_along", lambda c, axis: False)
            every = pf.orthonormal_frame(grid, metric)
        for b, (got, expected) in enumerate(zip(skipping.B, every.B)):
            if np.asarray(got).tobytes() == np.asarray(expected).tobytes():
                assert type(got) is type(expected), label
                continue
            assert got == 0.0 and type(got) is float, (label, b)
            assert np.max(np.abs(expected)) < 1e-12, (label, b)
            changed.append((label, b))
    assert changed and not any(label.endswith("Spectral") for label, _ in changed)


@pytest.mark.parametrize("kind, n", [("CentralFD2", 64), ("CentralFD4", 32)])
def test_stencil_tube_torus_frame_takes_one_derivative(monkeypatch, kind, n):
    # on a stencil the H^3 tube torus's sqrt g G^{00} is constant along u to
    # roundoff at these sizes too, so B^0 is the exact 0.0 the spectral frame
    # has, not that roundoff divided by h, and no Laplace-Beltrami call on the
    # frame takes a B^0 d_0 V term
    grid = pf.build_grid(pf.GridSpec(2, (n, n), (TWO_PI, TWO_PI), kind))
    phi = pf.builtin_map("TorusCliffordLike", {"a": 1.0, "rho": 0.4}, grid,
                         pf.SpaceFormSpec(-1.0, 3))
    metric = pf.induced_metric(phi)
    kinds = record_derivs(monkeypatch)
    frame = pf.orthonormal_frame(grid, metric)
    assert kinds == [kind]
    assert frame.B[0] == 0.0 and type(frame.B[0]) is float
    assert frame.lb_terms == (False, (1,))


def test_tube_torus_frame_takes_one_derivative(monkeypatch):
    # the 128^2 H^3 tube torus's sqrt g G^{00} depends on v alone, so its
    # d_0, exactly 0, is not taken: the frame takes d_1(sqrt g G^{11}) only
    grid = pf.build_grid(pf.GridSpec(*TORUS_128))
    phi = pf.builtin_map("TorusCliffordLike", {"a": 1.0, "rho": 0.4}, grid,
                         pf.SpaceFormSpec(-1.0, 3))
    metric = pf.induced_metric(phi)
    vol_G00 = phi.pullback_metric[..., 1, 1] ** 0.5 / phi.pullback_metric[..., 0, 0] ** 0.5
    assert np.ptp(vol_G00) > 0.1 and not np.any(grid.deriv(vol_G00, 0))
    kinds = record_derivs(monkeypatch)
    pf.orthonormal_frame(grid, metric)
    assert kinds == ["Spectral"]
    monkeypatch.setattr(domain_grid, "_constant_along", lambda c, axis: False)
    pf.orthonormal_frame(grid, metric)
    assert kinds == ["Spectral"] * 3


@pytest.mark.parametrize("metric", ["warped", "induced"])
def test_frame_trace_coefficients_match_the_metric(torus_grid, metric):
    # the frame trace G^{ab} d_a d_b + B^b d_b is the Laplace-Beltrami
    # operator: G = g^-1 and B^b = -g^{ac} Gamma^b_ac, the Christoffel route,
    # which differentiates g itself rather than sqrt(g) g^{ab} as the frame
    # does; on a prescribed warped metric and on the induced metric of the
    # H^3 tube torus
    if metric == "warped":
        g = warped_metric(torus_grid)
    else:
        g = pf.induced_metric(pf.builtin_map("TorusCliffordLike", {}, torus_grid,
                                             pf.SpaceFormSpec(-1.0, 3)))
    frame = frame_arrays(pf.orthonormal_frame(torus_grid, g))
    inverse = np.linalg.inv(g.g)
    assert np.max(np.abs(frame.G - inverse)) <= 1e-14 * np.max(np.abs(inverse))
    dg = [torus_grid.deriv(g.g, a) for a in range(2)]  # dg[d][..., a, b] = d_d g_ab
    expected = np.zeros(torus_grid.shape + (2,))
    for a in range(2):
        for c in range(2):
            for b in range(2):
                for d in range(2):
                    # Gamma^b_ac = (1/2) g^{bd} (d_a g_dc + d_c g_da - d_d g_ac)
                    gamma = 0.5 * inverse[..., b, d] * (
                        dg[a][..., d, c] + dg[c][..., d, a] - dg[d][..., a, c])
                    expected[..., b] -= inverse[..., a, c] * gamma
    err = np.max(np.abs(frame.B - expected))
    assert err <= 1e-11 * (1.0 + np.max(np.abs(expected)))
    assert np.max(np.abs(expected)) > 0.1  # the B terms are not trivially zero


@pytest.mark.parametrize("n", [32, 64, 128])
def test_frame_divergence_term_matches_the_tube_torus(n):
    # the H^3 tube torus (a 1, rho 0.4) has g = diag(A(v)^2, sinh^2 rho) with
    # A = cosh rho sinh a + sinh rho cos v cosh a, so B^u = 0 and
    # B^v = (1/(A sinh rho)) d_v(A / sinh rho) = A'(v) / (A sinh^2 rho)
    grid = pf.build_grid(pf.GridSpec(2, (n, n), (TWO_PI, TWO_PI)))
    a, rho = 1.0, 0.4
    phi = pf.builtin_map("TorusCliffordLike", {"a": a, "rho": rho}, grid,
                         pf.SpaceFormSpec(-1.0, 3))
    frame = pf.orthonormal_frame(grid, pf.induced_metric(phi))
    v = grid.coords[1]
    A = np.cosh(rho) * np.sinh(a) + np.sinh(rho) * np.cos(v) * np.cosh(a)
    dA = -np.sinh(rho) * np.sin(v) * np.cosh(a)
    assert frame.B[0] == 0.0
    assert np.max(np.abs(frame.B[1] - dA / (A * np.sinh(rho) ** 2))) <= 1e-12


def test_orthonormal_frame_orthonormality():
    # frame of a genuinely curved induced metric is g-orthonormal nodewise
    grid = pf.build_grid(pf.GridSpec(2, (48, 48), (TWO_PI, TWO_PI)))
    phi = pf.builtin_map("GraphSurface", {}, grid, pf.SpaceFormSpec(0.0, 5))
    metric = pf.induced_metric(phi)
    e = frame_arrays(pf.orthonormal_frame(grid, metric)).e
    gram = np.einsum("...ia,...ab,...jb->...ij", e, metric.g, e)
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
    values = phi.values.copy()
    values[3, 5, 0] = np.nan
    with pytest.raises(DegenerateImmersion):
        pf.induced_metric(pf.MapField(values=values, grid=torus_grid, spec=phi.spec))


def _random_spd(shape, rng):
    """Symmetric 2x2 field, eigenvalues in [0.5, 2], random orientation."""
    lam = rng.uniform(0.5, 2.0, shape + (2,))
    theta = rng.uniform(0.0, np.pi, shape)
    c, s = np.cos(theta), np.sin(theta)
    g = np.empty(shape + (2, 2))
    g[..., 0, 0] = lam[..., 0] * c**2 + lam[..., 1] * s**2
    g[..., 1, 1] = lam[..., 0] * s**2 + lam[..., 1] * c**2
    g[..., 0, 1] = g[..., 1, 0] = (lam[..., 0] - lam[..., 1]) * c * s
    return g


@pytest.mark.parametrize("case", ["warped", "random", "circle"])
def test_metric_kernels_match_lapack(torus_grid, case):
    # the closed-form determinant and smaller eigenvalue against LAPACK
    if case == "warped":
        g = warped_metric(torus_grid).g
    elif case == "random":
        g = _random_spd(torus_grid.shape, np.random.default_rng(5))
    else:
        s = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        g = (0.5 + 0.3 * np.sin(s) ** 2)[:, None, None]
    np.testing.assert_allclose(_det2(g), np.linalg.det(g), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(_min_eigenvalue(g), np.linalg.eigvalsh(g)[..., 0],
                               rtol=1e-14, atol=0.0)
    if case == "circle":  # a 1x1 metric is its own eigenvalue and determinant
        assert _min_eigenvalue(g).tobytes() == np.linalg.eigvalsh(g)[..., 0].tobytes()
        assert _det2(g).tobytes() == g[..., 0, 0].tobytes()


BAD_METRICS = {
    "zero": np.zeros((2, 2)),
    "indefinite": np.diag([1.0, -1.0]),
    "negative": -np.eye(2),
    "nan": np.full((2, 2), np.nan),
    "below_guard": np.diag([1.0, 5e-11]),
}


# a 1x1 metric is never indefinite
@pytest.mark.parametrize("dims,kind", [(d, k) for d in (1, 2) for k in BAD_METRICS
                                       if (d, k) != (1, "indefinite")])
def test_frame_rejects_a_bad_metric_at_one_node(circle_grid, torus_grid, dims, kind):
    # with RuntimeWarning an error, rejection also shows no 0/0 warning
    grid = circle_grid if dims == 1 else torus_grid
    bad = BAD_METRICS[kind][-dims:, -dims:]
    g = pf.identity_metric(grid).g.copy()
    g[(3,) * dims] = bad
    with pytest.raises(DegenerateMetric):
        pf.orthonormal_frame(grid, pf.prescribed_metric(grid, g))
    g[(3,) * dims] = bad + 1e-9 * np.eye(dims) if kind == "below_guard" else np.eye(dims)
    pf.orthonormal_frame(grid, pf.prescribed_metric(grid, g))


def _raw_map(grid, spec, values):
    return pf.MapField(values=np.stack(values, axis=-1), grid=grid, spec=spec)


# The Minkowski form of the hyperboloid's ambient space makes a curve moving
# in x0 alone timelike (g < 0), and a surface moving in x0 along one axis and
# x1 along the other indefinite.  No induced 2-d metric is negative definite,
# since the form has one negative direction.
@pytest.mark.parametrize("dims,kind", [(1, "zero"), (1, "negative"), (1, "nan"),
                                       (2, "zero"), (2, "indefinite"), (2, "nan")])
def test_induced_metric_rejects_a_bad_map(circle_grid, torus_grid, dims, kind):
    grid = circle_grid if dims == 1 else torus_grid
    spec = pf.SpaceFormSpec(-1.0, 2)
    one, zero = np.ones(grid.shape), np.zeros(grid.shape)
    if kind == "zero":
        phi = _raw_map(grid, spec, [one, zero, zero])
    elif kind in ("negative", "indefinite"):
        x0 = 2.0 + 0.5 * np.sin(grid.coords[0])
        x1 = np.sin(grid.coords[-1]) if dims == 2 else zero
        phi = _raw_map(grid, spec, [x0, x1, zero])
    else:
        name, spec = (("Circle", spec) if dims == 1
                      else ("TorusCliffordLike", pf.SpaceFormSpec(-1.0, 3)))
        phi = pf.builtin_map(name, {}, grid, spec)
        pf.induced_metric(phi)  # an immersion until the NaN
        values = phi.values.copy()
        values[(3,) * dims + (0,)] = np.nan
        phi = pf.MapField(values=values, grid=grid, spec=spec)
    with pytest.raises(DegenerateImmersion):
        pf.induced_metric(phi)


def test_integrate_total_volume(circle_grid):
    frame = pf.orthonormal_frame(circle_grid, pf.identity_metric(circle_grid))
    assert pf.integrate(frame, np.ones(circle_grid.shape)) == (
        pytest.approx(TWO_PI, abs=1e-12)
    )


def test_integrate_cos_squared(circle_grid):
    frame = pf.orthonormal_frame(circle_grid, pf.identity_metric(circle_grid))
    f = np.cos(circle_grid.coords[0]) ** 2
    assert pf.integrate(frame, f) == pytest.approx(np.pi, abs=1e-12)


def test_integrate_torus(torus_grid):
    frame = pf.orthonormal_frame(torus_grid, pf.identity_metric(torus_grid))
    total = pf.integrate(frame, np.ones(torus_grid.shape))
    assert total == pytest.approx(4 * np.pi**2, abs=1e-10)


def test_scalar_laplacian_sign(circle_grid):
    # positive convention: Delta f = -laplace_beltrami(f) = -f'' on the flat circle
    frame = pf.orthonormal_frame(circle_grid, pf.identity_metric(circle_grid))
    s = circle_grid.coords[0]
    lap = -laplace_beltrami(frame, np.sin(2 * s))[1]
    assert np.max(np.abs(lap - 4 * np.sin(2 * s))) <= 1e-10


def _frame_pairing(grid, frame, u, w):
    """sum_i e_i(u) e_i(w), from the stacked frame components of each gradient."""
    gu, gw = (np.stack(frame.along([grid.deriv(f, a) for a in range(grid.dims)]), -1)
              for f in (u, w))
    return np.sum(gu * gw, axis=-1)


@pytest.mark.parametrize("kind,n,tol", [("Spectral", 64, 1e-10),
                                        ("CentralFD2", 64, 0.2)])
def test_integration_by_parts(kind, n, tol):
    grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI,), kind))
    frame = pf.orthonormal_frame(grid, pf.identity_metric(grid))
    s = grid.coords[0]
    u = np.sin(s) + 0.3 * np.cos(2 * s)
    w = np.cos(3 * s)
    lhs = pf.integrate(frame, u * -laplace_beltrami(frame, w)[1])
    rhs = pf.integrate(frame, _frame_pairing(grid, frame, u, w))
    assert abs(lhs - rhs) <= tol


@pytest.mark.parametrize("kind", ["Spectral", "CentralFD2", "CentralFD4"])
def test_integration_by_parts_curved_metric(kind):
    # central stencils satisfy discrete summation by parts, so the residual
    # sits at or below the scheme tolerance even for non-flat metrics
    for n in (64, 128):
        grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI,), kind))
        s = grid.coords[0]
        g = ((1.0 + 0.3 * np.sin(s)) ** 2)[..., None, None]
        frame = pf.orthonormal_frame(grid, pf.prescribed_metric(grid, g))
        u, w = np.sin(s), np.cos(3 * s)
        lhs = pf.integrate(frame, u * -laplace_beltrami(frame, w)[1])
        rhs = pf.integrate(frame, _frame_pairing(grid, frame, u, w))
        h = grid.spacings[0]
        tol = 1e-10 if kind == "Spectral" else 2.0 * h**2
        assert abs(lhs - rhs) <= tol


def _fsum_outcome(sum_fn, x):
    """The bytes of sum_fn(x), "nan" for any NaN, or the exception type."""
    try:
        value = sum_fn(x)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def _adversarial_sums(rng):
    """Seeded arrays on both sides of FSUM_MAX_TERMS, by construction."""
    sizes = (16, 1000, FSUM_MAX_TERMS - 1, FSUM_MAX_TERMS, 4097, 16384)
    for n in sizes:
        yield rng.normal(size=n)
        yield rng.normal(size=n) * 10.0 ** rng.uniform(-30, 30, size=n)
        yield np.exp(20.0 * rng.normal(size=n)) * rng.choice((-1.0, 1.0), size=n)
        x = rng.normal(size=n // 2) * 10.0 ** rng.uniform(-8, 8, size=n // 2)
        yield np.concatenate([x, -x[::-1]])  # exactly 0
        yield np.concatenate([x, [1e-300], -x[::-1]])
        yield rng.permutation(np.resize([1e16, 0.1, -1e16, 0.1, 0.1], n))
        yield rng.normal(size=n) * 5e-324 * 2.0**rng.integers(0, 60, size=n)
        yield np.zeros(n)
        yield -np.zeros(n)
    n = 4096
    for top in (2.0**-900, 2.0**960):  # the fast path's range of max|x|
        for m in (np.nextafter(top, 0.0), top, np.nextafter(top, np.inf)):
            x = rng.uniform(-m, m, size=n)
            x[rng.integers(n)] = -m
            yield x
    yield np.full(n, 1e305)  # the sum overflows
    for special in (np.nan, np.inf, -np.inf):
        x = rng.normal(size=n)
        x[rng.integers(n)] = special
        yield x
    yield np.concatenate([[np.inf, -np.inf], rng.normal(size=n)])


def test_exact_sum_matches_fsum_bit_for_bit():
    # sign of a zero, NaN, the infinities and fsum's errors included
    rng = np.random.default_rng(17)
    for x in _adversarial_sums(rng):
        assert _fsum_outcome(exact_sum, x) == _fsum_outcome(math.fsum, x)


def _record_fsum_lengths(monkeypatch) -> list:
    lengths, fsum = [], math.fsum

    def recording(terms):
        lengths.append(len(terms))
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", recording)
    return lengths


def test_exact_sum_falls_back_to_fsum_near_rounding_boundaries(monkeypatch):
    rng = np.random.default_rng(5)
    n = 4096
    x = rng.normal(size=n // 2)
    exact_zero = np.concatenate([x, -x[::-1]])
    near_midpoint = np.zeros(n)  # 1 + 2**-53 is halfway between two floats
    near_midpoint[:3] = (1.0, 2.0**-53, 1e-30)
    near_midpoint = rng.permutation(near_midpoint)
    wide = rng.normal(size=n) * 10.0 ** rng.uniform(-30, 30, size=n)
    expected = [math.fsum(x) for x in (exact_zero, near_midpoint, wide)]
    lengths = _record_fsum_lengths(monkeypatch)
    zero, midpoint = exact_sum(exact_zero), exact_sum(near_midpoint)
    assert lengths == [3, 3, n] * 2
    assert zero == expected[0] == 0.0
    assert math.copysign(1.0, zero) == math.copysign(1.0, expected[0])
    assert midpoint == expected[1] == 1.0 + 2.0**-52
    del lengths[:]
    assert exact_sum(wide) == expected[2]
    assert lengths == [3, 3]  # no fallback


@pytest.mark.parametrize("n", [64, 4096])
def test_integrate_of_an_overflowing_node_sum(n):
    # n terms of 1e308 overflow as a node sum, but times h = 1/n the
    # integral is 1e308; over twice the length it is beyond the float range.
    # integrate never raises
    f = np.full(n, 1e308)
    with pytest.raises(OverflowError):
        math.fsum(f)
    for length, expected in ((1.0, 1e308), (2.0, math.inf)):
        grid = pf.build_grid(pf.GridSpec(1, (n,), (length,)))
        frame = pf.orthonormal_frame(grid, pf.identity_metric(grid))
        assert pf.integrate(frame, f) == pytest.approx(expected, rel=1e-15)
        assert pf.integrate(frame, -f) == pytest.approx(-expected, rel=1e-15)
    f[:2] = np.inf, -np.inf
    assert math.isnan(pf.integrate(frame, f))
    f[:2] = np.nan, 0.0
    assert math.isnan(pf.integrate(frame, f))


def test_periodic_distance_wraps():
    grid = pf.build_grid(pf.GridSpec(1, (16,), (16.0,)))
    d = pf.cutoff(grid, (0,), 1.0).distance
    assert d[1] == pytest.approx(1.0)
    assert d[15] == pytest.approx(1.0)
    assert d.max() == pytest.approx(8.0)
