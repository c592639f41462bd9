"""Target-geometry primitives: projections, exponential map, curvature."""

import math

import numpy as np
import pytest

import polyflow as pf
from polyflow import space_form as sf
from polyflow.errors import DegeneratePoint
from polyflow.flow import _boost_coefficients, _implicit_step

from conftest import reference_boost_frame

FLAT = sf.SpaceFormSpec(0.0, 2)
SPHERE = sf.SpaceFormSpec(1.0, 2)
HYP = sf.SpaceFormSpec(-1.0, 2)
ALL = [FLAT, SPHERE, HYP]


def random_point(spec, rng):
    x = rng.standard_normal(spec.ambient_dim)
    if spec.model is sf.Model.HYPERBOLOID:
        # stay strictly timelike on the upper sheet
        x[0] = np.sqrt(1.0 + np.sum(x[1:] ** 2))
    return sf.project_point(spec, x)


def random_tangent(spec, x, rng, unit=False):
    v = sf.project_tangent(spec, x, rng.standard_normal(x.shape))
    if unit:
        v = v / max(np.sqrt(sf.ambient_form(spec, v, v)), 1e-12)
    return v


def test_spec_models():
    assert FLAT.model is sf.Model.FLAT and FLAT.ambient_dim == 2
    assert SPHERE.model is sf.Model.SPHERE and SPHERE.ambient_dim == 3
    assert HYP.model is sf.Model.HYPERBOLOID and HYP.ambient_dim == 3


def test_spec_dimension_is_a_whole_number():
    spec = sf.SpaceFormSpec(1.0, 2.0)
    assert spec.n == 2 and isinstance(spec.n, int) and spec.ambient_dim == 3
    for n in (2.0000001, 2.5, "2", float("nan"), float("inf"), None):
        with pytest.raises(ValueError, match="whole number"):
            sf.SpaceFormSpec(1.0, n)


def test_spec_curvature_is_a_real_number():
    # a bool or a string is no curvature, and an int is stored as a float
    spec = sf.SpaceFormSpec(-1, 2)
    assert type(spec.c) is float and spec.c == -1.0 and spec.model is sf.Model.HYPERBOLOID
    for c in (True, False, np.True_, "1", "-1.0"):
        with pytest.raises(ValueError, match="real number"):
            sf.SpaceFormSpec(c, 2)
    for c in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            sf.SpaceFormSpec(c, 2)


def test_project_point_flat_identity():
    out = sf.project_point(FLAT, np.array([3.0, 4.0]))
    np.testing.assert_array_equal(out, [3.0, 4.0])


def test_project_point_sphere():
    out = sf.project_point(SPHERE, np.array([2.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-15)


def test_project_point_hyperboloid():
    # <x,x>_L = -4, radial scale 1/2
    out = sf.project_point(HYP, np.array([2.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-15)


def test_project_point_degenerate():
    with pytest.raises(DegeneratePoint):
        sf.project_point(SPHERE, np.zeros(3))
    with pytest.raises(DegeneratePoint):
        sf.project_point(HYP, np.array([1.0, 2.0, 0.0]))  # spacelike
    with pytest.raises(DegeneratePoint):
        sf.project_point(HYP, np.array([-2.0, 0.0, 0.0]))  # lower sheet


def test_project_tangent_sphere():
    x = np.array([1.0, 0.0, 0.0])
    out = sf.project_tangent(SPHERE, x, np.array([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


def test_project_tangent_hyperboloid():
    x = np.array([1.0, 0.0, 0.0])
    out = sf.project_tangent(HYP, x, np.array([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("spec", ALL)
def test_project_tangent_idempotent(spec):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = random_point(spec, rng)
        v = rng.standard_normal(spec.ambient_dim)
        once = sf.project_tangent(spec, x, v)
        twice = sf.project_tangent(spec, x, once)
        assert np.max(np.abs(twice - once)) <= 1e-12
        if spec.model is not sf.Model.FLAT:
            assert abs(sf.ambient_form(spec, x, once)) <= 1e-12


def test_ambient_form_hyperboloid_tangent():
    u = np.array([0.0, 1.0, 0.0])  # tangent at (1, 0, 0)
    assert sf.ambient_form(HYP, u, u) == 1.0
    assert sf.ambient_form(HYP, np.zeros(3), u) == 0.0


def test_ambient_form_orthogonal_coordinates():
    u = np.array([0.0, 1.0, 0.0])  # u and v tangent at (1, 0, 0)
    v = np.array([0.0, 0.0, 1.0])
    assert sf.ambient_form(SPHERE, u, v) == 0.0


def test_exp_map_zero_velocity():
    rng = np.random.default_rng(1)
    for spec in ALL:
        x = random_point(spec, rng)
        np.testing.assert_allclose(
            sf.exp_map(spec, x, np.zeros_like(x)), x, atol=1e-15
        )


def test_exp_map_flat_line():
    out = sf.exp_map(FLAT, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    np.testing.assert_array_equal(out, [4.0, 6.0])


def test_exp_map_quarter_circle():
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, np.pi / 2.0, 0.0])
    np.testing.assert_allclose(
        sf.exp_map(SPHERE, x, v), [0.0, 1.0, 0.0], atol=1e-15
    )


@pytest.mark.parametrize("spec", [SPHERE, HYP])
def test_exp_map_stays_on_model(spec):
    rng = np.random.default_rng(2)
    for scale in (0.1, 1.0, 10.0):
        x = random_point(spec, rng)
        v = random_tangent(spec, x, rng)
        v *= scale / max(np.sqrt(sf.ambient_form(spec, v, v)), 1e-30)
        out = sf.exp_map(spec, x, v)
        assert sf.constraint_residual(spec, out) <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c", [-1.0, -4.0, -0.25])
def test_boost_frame_is_orthonormal_and_tangent(c, n):
    # the implicit flow step's boost frame, in closed form, at random points
    # of the upper sheet out to |p| ~ 30 and at 40 far ones (x0 ~ 1e3 r).
    # V = sum_i w_i E_i has ambient size ~ |w| (1 + x0/r), so roundoff is
    # bounded relative to |V| (1 + |x|/r) and to |V|^2
    spec = sf.SpaceFormSpec(c, n)
    r = 1.0 / np.sqrt(-c)
    rng = np.random.default_rng(6)
    y = rng.standard_normal((200, n)) * rng.uniform(0.0, 8.0, (200, 1))
    y[-40:] *= 1e3 * r / np.sqrt(np.sum(y[-40:] ** 2, -1, keepdims=True))
    x = np.concatenate([np.sqrt(-1.0 / c + np.sum(y * y, -1))[:, None], y], -1)
    frame = reference_boost_frame(x, c)
    V = sum(w[:, None] * E for w, E in zip(rng.standard_normal((n, 200)), frame))
    size = np.max(np.abs(V), -1)
    scale = size * (1.0 + np.max(np.abs(x), -1) / r)
    # the coefficients are the reference frame's
    a, coeffs = _boost_coefficients(x, V, r)
    ref = np.stack([sf.ambient_form(spec, V, E) for E in frame], -1)
    assert np.all(np.max(np.abs(coeffs - ref), -1) <= 1e-13 * scale)
    # the coefficient map is an isometry: sum_i c_i^2 = <V, V>_L
    defect = np.abs(np.sum(coeffs**2, -1) - sf.ambient_form(spec, V, V))
    assert np.all(defect <= 1e-13 * np.sum(V * V, -1))
    # an implicit step at dt = 0 rebuilds V from its coefficients, tangent
    grid = pf.build_grid(pf.GridSpec(1, (200,), (2.0 * np.pi,)))
    step = _implicit_step(pf.MapField(x, grid, spec), V, 3, 0.0)
    assert np.all(np.max(np.abs(step - V), -1) <= 1e-13 * scale)
    normal = sf.ambient_form(spec, step, x)
    assert np.all(np.abs(normal) <= 1e-14 * size * np.max(np.abs(x), -1))


def _doubled_form(spec, u, v):
    """The ambient form as a numpy reduction over the ambient axis; on the
    hyperboloid with u0 v0 added in, then subtracted twice."""
    dot = np.add.reduce(u * v, axis=-1)
    if spec.model is sf.Model.HYPERBOLOID:
        dot = dot - 2.0 * u[..., 0] * v[..., 0]
    return dot


def _fsum_form(u, v):
    """Per node, the correctly rounded sum of the signed products
    u1 v1 + ... + un vn - u0 v0, by math.fsum."""
    p = u * v
    p[..., 0] *= -1.0
    return np.array([math.fsum(t) for t in p.reshape(-1, p.shape[-1])]).reshape(p.shape[:-1])


def _unrolled_minkowski(u, v):
    """u1 v1 + ... + un vn - u0 v0, one term at a time in that order."""
    dot = u[..., 1] * v[..., 1]
    for i in range(2, u.shape[-1]):
        dot = dot + u[..., i] * v[..., i]
    return dot - u[..., 0] * v[..., 0]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("c", [0.0, 1.0, -1.0])
def test_ambient_form_is_bitwise_add_reduce(c, m):
    # c >= 0: the unrolled sum is numpy's own summation order, signed zeros
    # included.  c < 0: the spatial terms in order, u0 v0 subtracted last,
    # bit for bit, signed zeros included; its m - 1 roundings and the one of
    # the fsum reference put it within about m 2^-53 sum |u_i v_i| of fsum,
    # and the bound allows twice that
    spec = sf.SpaceFormSpec(c, m if c == 0.0 else m - 1)
    assert spec.ambient_dim == m
    rng = np.random.default_rng(m)
    u = rng.standard_normal((32, 48, m)) * 10.0 ** rng.integers(-8, 9, (32, 48, m))
    v = rng.standard_normal((32, 48, m))
    u[0] = 0.0
    v[0] = -np.abs(v[0])  # every product -0.0: the sum reads +0.0
    u[1, :, :2] = -0.0  # zeros of either sign among non-zero products
    u[2], v[2, :, 0], v[2, :, 1:] = 0.0, 1.0, -1.0  # u0 v0 = +0.0, the rest -0.0
    if c < 0.0:  # -0.0 - +0.0: a sum started from +0.0 would read +0.0
        assert np.all(np.signbit(sf.ambient_form(spec, u[2], v[2])))
    frame = rng.standard_normal((32, 48, m - 1, m))  # a frame's worth of vectors
    for a, b in ((u, v), (v, u), (u, u), (u[..., None, :], frame)):
        got = sf.ambient_form(spec, a, b)
        if c >= 0.0:
            ref = _doubled_form(spec, a, b)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        else:
            a, b = np.broadcast_arrays(a, b)
            unrolled = _unrolled_minkowski(a, b)
            assert got.shape == unrolled.shape
            assert got.tobytes() == unrolled.tobytes()
            ref = _fsum_form(a, b)
            bound = m * 2.0**-52 * np.sum(np.abs(a * b), -1)
            assert np.all(np.abs(got - ref) <= bound)


@pytest.mark.parametrize("n", [2, 3])
def test_ambient_form_far_on_the_hyperboloid(n):
    # <x, x>_L = -1 at x0 ~ 1e3: terms of 1e6 cancel to -1.  Subtracting
    # u0 v0 once lands at least as close to fsum of the products as adding
    # it and subtracting it twice (largest errors measured: 5.8e-11 against
    # 2.3e-10 on H^2, 1.2e-10 against 3.5e-10 on H^3)
    spec = sf.SpaceFormSpec(-1.0, n)
    rng = np.random.default_rng(n)
    y = rng.standard_normal((4000, n))
    y *= 1e3 / np.sqrt(np.sum(y * y, -1, keepdims=True))
    x = np.concatenate([np.sqrt(1.0 + np.sum(y * y, -1))[:, None], y], -1)
    exact = _fsum_form(x, x)
    folded = np.max(np.abs(sf.ambient_form(spec, x, x) - exact))
    doubled = np.max(np.abs(_doubled_form(spec, x, x) - exact))
    assert folded <= doubled


def test_curvature_flat_vanishes():
    rng = np.random.default_rng(3)
    args = [rng.standard_normal(2) for _ in range(3)]
    out = sf.curvature_op(FLAT, *args)
    np.testing.assert_array_equal(out, np.zeros(2))


def test_curvature_space_form_formula():
    # c = -1: R(X, Y)Z = -(h(Y,Z) X - h(X,Z) Y); here h(Y,Z)=1, h(X,Z)=0
    X = np.array([0.0, 1.0, 0.0])  # X and Y tangent at (1, 0, 0)
    Y = np.array([0.0, 0.0, 1.0])
    out = sf.curvature_op(HYP, X, Y, Y)
    np.testing.assert_allclose(out, [0.0, -1.0, 0.0], atol=1e-15)


def test_curvature_antisymmetry():
    rng = np.random.default_rng(4)
    x = random_point(SPHERE, rng)
    X = random_tangent(SPHERE, x, rng)
    Z = random_tangent(SPHERE, x, rng)
    out = sf.curvature_op(SPHERE, X, X, Z)
    assert np.max(np.abs(out)) <= 1e-14


@pytest.mark.parametrize("spec", ALL)
def test_curvature_pair_symmetry(spec):
    # <R(v3,v4)v2, v1> = <R(v1,v2)v4, v3> on random tangent quadruples
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        x = random_point(spec, rng)
        v = [random_tangent(spec, x, rng, unit=True) for _ in range(4)]
        lhs = sf.ambient_form(spec, sf.curvature_op(spec, v[2], v[3], v[1]), v[0])
        rhs = sf.ambient_form(spec, sf.curvature_op(spec, v[0], v[1], v[3]), v[2])
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
