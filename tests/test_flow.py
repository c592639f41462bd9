"""Gradient flows: descent fields, Armijo steps, convergence, probe."""

import math

import numpy as np
import pytest

import polyflow as pf
from polyflow import flow as flow_module
from polyflow import space_form as sf
from polyflow.flow import _boost_coefficients, _implicit_step

from conftest import (SIN_R_BI, SIN_R_TRI, components_outermost, fail_third_trial,
                      frame_for, record_derivs, reference_boost_frame, static_probe)

TWO_PI = 2 * np.pi


def small_h2_perturbation(n=64, amplitude=0.02, k=2):
    grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI,)))
    spec = pf.SpaceFormSpec(-1.0, 2)
    return pf.builtin_map(
        "PerturbedGeodesicH2", {"amplitude": amplitude, "k": k}, grid, spec
    )


def h3_torus_32():
    """The tube torus (a 1, rho 0.4) in H^3 on a 32^2 grid."""
    grid = pf.build_grid(pf.GridSpec(2, (32, 32), (TWO_PI, TWO_PI)))
    return pf.builtin_map("TorusCliffordLike", {"a": 1.0, "rho": 0.4}, grid,
                          pf.SpaceFormSpec(-1.0, 3))


def assert_monotone(series):
    diffs = np.diff(series)
    assert np.all(diffs <= 1e-12 * np.abs(np.asarray(series[:-1])))


@pytest.mark.parametrize("dt0", [math.inf, -math.inf, math.nan, 0.0, -1e-3])
def test_flow_config_rejects_bad_dt0(dt0):
    with pytest.raises(ValueError, match="dt0 must be positive and finite"):
        pf.FlowConfig(dt0=dt0)


def test_flow_config_stores_dt0_as_float():
    for dt0 in (2, np.float32(0.5)):
        cfg = pf.FlowConfig(dt0=dt0)
        assert type(cfg.dt0) is float and cfg.dt0 == float(dt0)
    for dt0 in ("0.25", "small", True):
        with pytest.raises(ValueError, match="dt0 must be a real number"):
            pf.FlowConfig(dt0=dt0)


def test_descent_field_matches_tension_fields(flat_circle):
    frame = frame_for(flat_circle, induced=False)
    tau = pf.tension(flat_circle, frame)
    chain = pf.TensionChain(flat_circle, frame)
    d1, d3 = chain.field(1), chain.field(3)
    assert np.max(np.abs(d1 - tau)) == 0.0
    assert np.max(np.abs(d3 - tau)) <= 1e-11  # tau3 = tau at r=1


def test_descent_field_geodesic_zero(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi, induced=False)
    chain = pf.TensionChain(phi, frame)
    for k in (1, 2, 3):
        assert np.max(sf.norm(phi.spec, chain.field(k))) <= 1e-9


def test_flow_step_zero_descent_fixed_point(circle_grid):
    phi = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.0, "k": 2},
                         circle_grid, pf.SpaceFormSpec(-1.0, 2))
    frame = frame_for(phi, induced=False)
    cfg = pf.FlowConfig(kind="Triharmonic")
    trial = pf.flow_step(pf.TensionChain(phi, frame), cfg, dt=1e-3)
    assert trial.accepted
    assert trial.chain.phi is phi


def test_implicit_flow_step_is_not_capped(flat_circle):
    # the implicit step damps the circle's q = 1 mode by 1 / (1 + dt): at
    # dt = 50 it moves the radius to 1/51, a drop far below the first-order
    # prediction, which armijo_c = 0.99999 rejects; the step is not clipped
    frame = frame_for(flat_circle, induced=False)
    cfg = pf.FlowConfig(kind="Harmonic", shrink=0.5, armijo_c=0.99999)
    chain = pf.TensionChain(flat_circle, frame)
    trial = pf.flow_step(chain, cfg, dt=50.0)
    assert not trial.accepted and trial.chain is chain
    accepted = pf.flow_step(chain, pf.FlowConfig(kind="Harmonic"), dt=50.0)
    assert accepted.accepted
    radius = np.linalg.norm(accepted.chain.phi.values, axis=-1)
    assert np.max(np.abs(radius - 1.0 / 51.0)) <= 1e-12


def test_flow_step_accept_grows(flat_circle):
    frame = frame_for(flat_circle, induced=False)
    cfg = pf.FlowConfig(kind="Harmonic", shrink=0.5, armijo_c=1e-4)
    trial = pf.flow_step(pf.TensionChain(flat_circle, frame), cfg, dt=1e-3)
    assert trial.accepted
    frame2 = frame_for(trial.chain.phi, induced=False)
    assert (pf.TensionChain(trial.chain.phi, frame2).energy(1)
            < pf.TensionChain(flat_circle, frame).energy(1))
    # an accepted candidate is the implicit step's geodesic variation, bit
    # for bit, on a flat and on a curved target
    for phi in (flat_circle, small_h2_perturbation()):
        chain = pf.TensionChain(phi, frame_for(phi, induced=False))
        trial = pf.flow_step(chain, cfg, dt=1e-3)
        assert trial.accepted
        step = _implicit_step(phi, chain.field(1), 1, 1e-3)
        expected = pf.vary(phi, step, 1e-3)
        assert trial.chain.phi.values.tobytes() == expected.values.tobytes()


def test_run_flow_stalls_below_the_step_floor(flat_circle):
    # run_flow tries no dt below DT_FLOOR: the flow ends stalled after the
    # initial state's row, and returns that state; flow_step itself tries
    # any dt as given
    assert 1e-15 < flow_module.DT_FLOOR
    cfg = pf.FlowConfig(kind="Harmonic", dt0=1e-15)
    state, trace = pf.run_flow(flat_circle, cfg)
    assert trace.status == "stalled"
    assert len(trace.rows) == 1 and trace.rows[0][0] == 0
    assert state is not None and state.phi is flat_circle
    assert isinstance(pf.flow_step(state, cfg, dt=1e-15), flow_module.Trial)


def test_explicit_dt0_is_the_first_trial_step():
    grid = pf.build_grid(pf.GridSpec(1, (64,), (TWO_PI,)))
    phi = pf.builtin_map("Circle", {"r": 1.0}, grid, pf.SpaceFormSpec(0.0, 2))
    cfg = pf.FlowConfig(kind="Harmonic", dt0=0.25, max_iters=1)
    assert cfg.initial_dt(grid) == 0.25
    _, trace = pf.run_flow(phi, cfg)
    assert trace.column("dt")[1] == 0.25


def test_harmonic_flow_shrinks_circle(flat_circle):
    # curve-shortening behavior: the radius and the energy both decrease
    cfg = pf.FlowConfig(kind="Harmonic", max_iters=50, grad_tol=1e-12)
    state, trace = pf.run_flow(flat_circle, cfg)
    assert trace.column("E")[-1] < trace.column("E")[0]
    assert np.max(np.linalg.norm(state.phi.values, axis=-1)) < 1.0


@pytest.mark.parametrize("armijo_c,max_iters", [(1e-4, 2), (0.99999, 6)])
def test_accepted_series_starts_at_the_initial_state(armijo_c, max_iters):
    # row 0 is the initial state (dt NaN), which the first accepted energy
    # must be compared with; rejected trials (dt 0) are left out.  At
    # armijo_c 0.99999 the first five trials are rejected
    cfg = pf.FlowConfig(kind="Triharmonic", max_iters=max_iters, grad_tol=1e-12,
                        armijo_c=armijo_c)
    _, trace = pf.run_flow(small_h2_perturbation(), cfg)
    e3, dts = trace.column("E3"), trace.column("dt")
    assert math.isnan(dts[0])
    accepted = [e for e, dt in zip(e3[1:], dts[1:]) if dt > 0.0]
    if armijo_c < 0.5:
        assert len(accepted) == 2
    else:
        assert dts[1:6] == [0.0] * 5 and len(accepted) == 1
    assert trace.accepted_series("E3") == [e3[0]] + accepted


def test_run_flow_geodesic_immediate(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    cfg = pf.FlowConfig(kind="Triharmonic", grad_tol=1e-8, max_iters=100)
    state, trace = pf.run_flow(phi, cfg)
    assert trace.status == "converged"
    assert trace.column("iter") == [0]
    np.testing.assert_array_equal(state.phi.values, phi.values)


def implicit_step_states():
    grid = pf.build_grid(pf.GridSpec(1, (128,), (TWO_PI,)))
    return [
        pf.builtin_map("Circle", {"r": 1.0}, grid, pf.SpaceFormSpec(0.0, 2)),
        pf.builtin_map("Circle", {"r": 0.7}, grid, pf.SpaceFormSpec(1.0, 2)),
        small_h2_perturbation(amplitude=0.05, k=3),
    ]


@pytest.mark.parametrize("phi", implicit_step_states(), ids=["flat", "S2", "H2"])
def test_implicit_step_is_tangent_and_descends(phi):
    # the step pairs positively with the descent for every dt, which is why
    # the flow's step needs no limit
    frame = frame_for(phi, induced=False)
    descent = pf.TensionChain(phi, frame).field(3)
    for dt in np.logspace(-12.0, 3.0, 16):
        step = _implicit_step(phi, descent, 3, dt)
        normal = step - sf.project_tangent(phi.spec, phi.values, step)
        assert np.max(np.abs(normal)) <= 1e-13 * np.max(np.abs(step))
        pairing = pf.integrate(frame, sf.ambient_form(phi.spec, descent, step))
        assert pairing > 0.0
    # a small dt leaves the descent unchanged; a large one damps it
    near = _implicit_step(phi, descent, 3, 1e-12)
    assert np.max(np.abs(near - descent)) <= 1e-9 * np.max(np.abs(near))
    assert np.max(np.abs(_implicit_step(phi, descent, 3, 1e3))) < np.max(np.abs(near))


def rfftn_implicit_step(phi, descent, k, dt):
    """_implicit_step with its transform written as numpy's rfftn/irfftn pair."""
    spec, grid, x, coeffs = phi.spec, phi.grid, phi.values, descent
    boost = spec.model is sf.Model.HYPERBOLOID
    if boost:
        r = 1.0 / math.sqrt(-spec.c)
        a, coeffs = _boost_coefficients(x, coeffs, r)
    axes = tuple(range(grid.dims))
    spectrum = np.fft.rfftn(coeffs, axes=axes) / (1.0 + dt * grid.q_power(k))
    coeffs = np.fft.irfftn(spectrum, s=grid.shape, axes=axes)
    if not boost:
        return sf.project_tangent(spec, x, coeffs)
    s = sum(a[..., i] * coeffs[..., i] for i in range(spec.n))
    return np.concatenate([(s * (1.0 + x[..., 0] / r))[..., None],
                           coeffs + (s / r)[..., None] * x[..., 1:]], axis=-1)


def s3_torus_32():
    grid = pf.build_grid(pf.GridSpec(2, (32, 32), (TWO_PI, TWO_PI)))
    return pf.builtin_map("TorusCliffordLike", {"alpha": np.pi / 5}, grid,
                          pf.SpaceFormSpec(1.0, 3))


@pytest.mark.parametrize("make_phi", [
    lambda: small_h2_perturbation(n=256, amplitude=0.05, k=3), s3_torus_32, h3_torus_32,
], ids=["H2-256", "S3-32x32", "H3-32x32"])
def test_implicit_step_equals_rfftn_bit_for_bit(make_phi):
    # the step calls rfftn's and irfftn's parts directly; every bit matches,
    # and the step is a section with its components outermost
    phi = make_phi()
    chain = pf.TensionChain(phi, frame_for(phi, induced=False))
    for k in (1, 2, 3):
        descent = chain.field(k)
        for dt in (0.0, 1e-9, 3.6e-8, 1e-3, 1e3):
            got = _implicit_step(phi, descent, k, dt)
            ref = rfftn_implicit_step(phi, descent, k, dt)
            assert got.shape == ref.shape and components_outermost(got)
            assert got.tobytes() == ref.tobytes()


def test_criterion_8_flow_is_stationary_at_tight_tolerance():
    # criterion 8 checks first variations only below sup |tau3| 1e-8; its
    # own flow stops at 1e-6, so this runs them on the same flow at 1e-8
    grid = pf.build_grid(pf.GridSpec(1, (256,), (TWO_PI,)))
    phi0 = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.05, "k": 3}, grid,
                          pf.SpaceFormSpec(-1.0, 2))
    cfg = pf.FlowConfig(kind="Triharmonic", max_iters=100000, grad_tol=1e-8)
    state, trace = pf.run_flow(phi0, cfg)
    assert trace.status == "converged"
    assert trace.column("sup_descent")[-1] <= 1e-8
    assert trace.column("iter")[-1] <= 100
    assert_monotone(trace.accepted_series("E3"))
    for seed in range(10):
        V = pf.random_tangent_section(state.phi, seed=seed)
        assert pf.first_variation_residual(state, V, 3, 1e-3) <= 1e-6
    assert pf.theorem_probe(state, trace.status).classification == "minimal"
    assert np.max(np.abs(state.phi.values - [1.0, 0.0, 0.0])) <= 1e-10  # base point


def test_triharmonic_flow_2d_converges():
    # an explicit step limited to its stability edge stalled here after
    # ~1,600 trials with E3 650 -> 540
    cfg = pf.FlowConfig(kind="Triharmonic", grad_tol=1e-6)
    state, trace = pf.run_flow(h3_torus_32(), cfg)
    assert trace.status == "converged"
    assert trace.column("iter")[-1] <= 60
    e3 = trace.accepted_series("E3")
    assert_monotone(e3)
    assert e3[0] > 600.0 and e3[-1] <= 1e-9
    assert state.phi.constraint_residual() <= 1e-12


def test_probe_noise_floor_of_the_triharmonic_circle():
    # the S^2 circle with sin r = 1/sqrt(3) is exactly triharmonic.  Each of
    # phi, tau and Delta tau is transformed once, so no derivative is
    # thresholded again, and sup |tau3| stays at roundoff from 64 to 2^16
    # nodes
    for n in (64, 256, 1024, 4096, 16384, 65536):
        chain, probe = static_probe(np.arcsin(SIN_R_TRI), 1.0, n)
        print(f"[noise floor] N = {n}: sup|tau3| = {probe.sup_tau3:.2e}, "
              f"{probe.classification}")
        assert probe.sup_tau3 <= 1e-12
        assert probe.classification == "nonminimal-candidate"


def test_probe_sharpness_controls():
    # where the paper's conclusion fails (c > 0) the probe must see it: S^2
    # has a proper triharmonic circle and a proper biharmonic one
    chain, probe = static_probe(np.arcsin(SIN_R_TRI), 1.0)
    assert probe.classification == "nonminimal-candidate"
    assert probe.sup_tau3 <= 1e-12 and probe.immersed
    assert probe.isometry_defect == 0.0  # the frame's metric is the induced one
    assert probe.sup_tau == pytest.approx(np.sqrt(2.0), rel=1e-10)  # kappa
    chain, probe = static_probe(np.arcsin(SIN_R_BI), 1.0)
    assert chain.sup_norm(2) <= 1e-12
    assert probe.sup_tau == pytest.approx(1.0, rel=1e-10)
    # in H^2 (c < 0) no circle is triharmonic
    for r, floor in ((0.3, 500.0), (1.4, 4.0)):
        _, probe = static_probe(r, -1.0)
        assert probe.classification == "inconclusive" and probe.immersed
        assert probe.sup_tau3 >= floor


def test_probe_takes_no_derivative_on_criterion_8_end_state(monkeypatch):
    # the immersion check reads the map's d_a phi, which the flow's chain
    # of the end state already holds
    grid = pf.build_grid(pf.GridSpec(1, (256,), (TWO_PI,)))
    phi0 = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.05, "k": 3}, grid,
                          pf.SpaceFormSpec(-1.0, 2))
    state, trace = pf.run_flow(phi0, pf.FlowConfig(kind="Triharmonic",
                                                   max_iters=100000, grad_tol=1e-6))
    assert trace.status == "converged"
    kinds = record_derivs(monkeypatch)
    probe = pf.theorem_probe(state, trace.status)
    assert probe.classification == "minimal"
    assert not probe.immersed  # the flow ends at a constant map
    # whose pulled-back metric is ~0 against the flat frame's delta_ab
    assert probe.isometry_defect == pytest.approx(1.0, abs=1e-9)
    assert kinds == []


def test_probe_flags_constant_state():
    # the constant map is triharmonic and "minimal", but not an immersion
    phi = small_h2_perturbation(amplitude=0.0)
    state, trace = pf.run_flow(phi, pf.FlowConfig(kind="Triharmonic"))
    probe = pf.theorem_probe(state, trace.status)
    assert probe.classification == "minimal"
    assert probe.E == 0.0 and probe.immersed is False
    assert any("constant (E = 0)" in c for c in probe.caveats)


def test_triharmonic_flow_converges_small():
    phi0 = small_h2_perturbation()
    cfg = pf.FlowConfig(kind="Triharmonic", max_iters=60000, grad_tol=1e-8)
    state, trace = pf.run_flow(phi0, cfg)
    assert trace.status == "converged"
    assert trace.column("iter")[-1] <= 3500
    assert_monotone(trace.accepted_series("E3"))
    assert state.phi.constraint_residual() <= 1e-10

    # critical-point consistency: the terminal state is stationary in all
    # tested directions
    for seed in range(10):
        V = pf.random_tangent_section(state.phi, seed=seed)
        assert pf.first_variation_residual(state, V, 3, 1e-3) <= 1e-6

    probe = pf.theorem_probe(state, trace.status)
    assert probe.classification == "minimal"
    assert probe.sup_tau <= 1e-4
    assert probe.tau_sq_node_variance <= 1e-8
    tension_diag = probe.constancy_diagnostics["tension"]
    assert tension_diag["constancy_expected"]
    assert tension_diag["norm_variance"] <= 1e-8


def test_biharmonic_flow_decreases_e2():
    phi0 = small_h2_perturbation(amplitude=0.01)
    cfg = pf.FlowConfig(kind="Biharmonic", max_iters=2000, grad_tol=1e-7)
    _, trace = pf.run_flow(phi0, cfg)
    e2 = trace.accepted_series("E2")
    assert e2[-1] < e2[0]
    assert_monotone(e2)


def test_harmonic_flow_perturbed_great_circle():
    grid = pf.build_grid(pf.GridSpec(1, (64,), (TWO_PI,)))
    spec = pf.SpaceFormSpec(1.0, 2)
    base = pf.builtin_map("GreatCircleS2", {}, grid, spec)
    bump = sf.project_tangent(
        spec, base.values,
        0.05 * np.sin(2 * grid.coords[0])[..., None] * np.array([0.0, 0.0, 1.0]),
    )
    phi0 = pf.vary(base, bump, 1.0)
    cfg = pf.FlowConfig(kind="Harmonic", max_iters=20000, grad_tol=1e-8)
    state, trace = pf.run_flow(phi0, cfg)
    assert trace.status == "converged"
    assert np.max(sf.norm(spec, state.tau)) <= 1e-8


def test_probe_geodesic_minimal(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    cfg = pf.FlowConfig(kind="Triharmonic", grad_tol=1e-8, max_iters=10)
    state, trace = pf.run_flow(phi, cfg)
    probe = pf.theorem_probe(state, trace.status)
    assert probe.classification == "minimal"
    assert probe.sup_tau <= 1e-12
    assert probe.sup_tau3 <= 1e-9
    assert probe.caveats


def test_trace_rows_and_columns(flat_circle):
    cfg = pf.FlowConfig(kind="Harmonic", max_iters=3, grad_tol=1e-14)
    _, trace = pf.run_flow(flat_circle, cfg)
    rows = trace.rows
    assert len(rows) == len(trace.column("iter"))
    assert len(rows[0]) == len(trace.COLUMNS)


def test_run_flow_degenerate_keeps_partial_trace(monkeypatch):
    # the third trial's candidate cannot be projected onto the model: the
    # flow ends with the state the second trial entered and its three rows
    entered = []
    trace_metrics = flow_module._trace_metrics

    def metrics(chain):
        entered.append(chain)
        return trace_metrics(chain)

    monkeypatch.setattr(flow_module, "_trace_metrics", metrics)
    phi0 = small_h2_perturbation()
    fail_third_trial(monkeypatch)
    cfg = pf.FlowConfig(kind="Triharmonic", max_iters=10, grad_tol=1e-12)
    state, trace = pf.run_flow(phi0, cfg)
    assert trace.status == "degenerate"
    assert trace.column("iter") == [0, 1, 2]
    assert all(dt > 0.0 for dt in trace.column("dt")[1:])
    assert state is entered[-1] and len(entered) == 3
    assert state.energy(1) == trace.column("E")[-1]


def test_run_flow_nonfinite_at_step_0():
    # cosh overflows for a hyperbolic circle of radius 800, so the initial
    # map is not finite and the flow enters no state
    grid = pf.build_grid(pf.GridSpec(1, (64,), (TWO_PI,)))
    with pytest.warns(RuntimeWarning):
        phi0 = pf.builtin_map("Circle", {"r": 800.0}, grid, pf.SpaceFormSpec(-1.0, 2))
    state, trace = pf.run_flow(phi0, pf.FlowConfig(kind="Triharmonic"))
    assert trace.status == "nonfinite"
    assert trace.column("iter") == [] and trace.rows == []
    assert state is None


def end_state_flow(case, monkeypatch):
    """(initial map, config, end status) of a flow that ends as ``case`` says."""
    if case == "fixed-converged":
        return (small_h2_perturbation(), pf.FlowConfig(kind="Triharmonic"),
                "converged")
    if case == "fixed-max-iters":
        return (h3_torus_32(), pf.FlowConfig(kind="Biharmonic", max_iters=5,
                                             grad_tol=1e-14), "max_iters")
    phi0 = small_h2_perturbation()
    fail_third_trial(monkeypatch)
    return phi0, pf.FlowConfig(kind="Triharmonic"), "degenerate"


@pytest.mark.parametrize("case", ["fixed-converged", "fixed-max-iters",
                                  "fixed-degenerate"])
def test_run_flow_state_is_its_end_state(case, monkeypatch):
    # the returned chain reads as one rebuilt from the end state's map
    phi0, cfg, status = end_state_flow(case, monkeypatch)
    state, trace = pf.run_flow(phi0, cfg)
    assert trace.status == status
    rebuilt = pf.TensionChain(state.phi, frame_for(state.phi, induced=False))
    assert pf.energy_report(state).to_dict() == pf.energy_report(rebuilt).to_dict()
    assert (pf.theorem_probe(state, trace.status).to_dict()
            == pf.theorem_probe(rebuilt, trace.status).to_dict())
    assert state.energy(1) == trace.column("E")[-1]


def test_run_flow_nonfinite_keeps_partial_trace(monkeypatch):
    # the fourth state entered reads a non-finite energy: the flow ends with
    # the third state and its three trace rows
    entered = []
    trace_metrics = flow_module._trace_metrics

    def metrics(chain):
        entered.append(chain.phi)
        row = trace_metrics(chain)
        return row if len(entered) < 4 else (math.nan,) + row[1:]

    monkeypatch.setattr(flow_module, "_trace_metrics", metrics)
    cfg = pf.FlowConfig(kind="Triharmonic", max_iters=10, grad_tol=1e-12)
    state, trace = pf.run_flow(small_h2_perturbation(), cfg)
    assert trace.status == "nonfinite"
    assert trace.column("iter") == [0, 1, 2]
    assert state.phi is entered[2]


def implicit_step(phi, descent, k, dt):
    """Linearly implicit Euler for the leading operator: the descent's
    coefficients in an orthonormal tangent frame (ambient components, or the
    boost frame on the hyperboloid), each Fourier mode divided by
    1 + dt |m|^(2k), m its mode number (the wavenumber on 2 pi-periodic
    axes, Nyquist included), and the step rebuilt from the frame."""
    x, spec = phi.values, phi.spec
    if spec.c < 0.0:
        frame = reference_boost_frame(x, spec.c)
        coeffs = np.stack([sf.ambient_form(spec, descent, E) for E in frame], -1)
    else:
        coeffs = descent
    *others, last = range(x.ndim - 1)
    spectrum = np.fft.rfft(coeffs, axis=last)
    m_sq = np.zeros(spectrum.shape[:-1] + (1,))
    for axis in (*others, last):
        n = coeffs.shape[axis]
        mode = np.arange(n // 2 + 1) if axis == last else np.fft.fftfreq(n, 1.0 / n)
        m_sq += (mode.astype(float) ** 2).reshape((-1,) + (1,) * (x.ndim - axis - 1))
    for axis in others:
        spectrum = np.fft.fft(spectrum, axis=axis)
    spectrum = spectrum / (1.0 + dt * m_sq**k)
    for axis in others:
        spectrum = np.fft.ifft(spectrum, axis=axis)
    coeffs = np.fft.irfft(spectrum, n=x.shape[last], axis=last)
    if spec.c < 0.0:
        return sum(coeffs[..., i, None] * E for i, E in enumerate(frame))
    return sf.project_tangent(spec, x, coeffs)


def reference_flow(phi0, cfg):
    """run_flow as a plain loop: every energy and descent field from a fresh
    tension chain on the flat frame, the implicit step, and the Armijo trial
    projected once, by exp_map."""
    k = {"Harmonic": 1, "Biharmonic": 2, "Triharmonic": 3}[cfg.kind.value]
    phi, dt, rows = phi0, cfg.initial_dt(phi0.grid), []
    frame = frame_for(phi, induced=False)

    def enter(state):
        report = pf.energy_report(pf.TensionChain(state, frame))
        descent = pf.TensionChain(state, frame).field(k)
        return descent, (report.E, report.E2, report.E3, report.Etilde4,
                         report.Lp_tension[4.0], report.sup_tau,
                         float(np.max(sf.norm(state.spec, descent))))

    descent, row = enter(phi)
    rows.append((0, *row, math.nan))
    for it in range(1, cfg.max_iters + 1):
        if row[-1] <= cfg.grad_tol:
            break
        step = implicit_step(phi, descent, k, dt)
        e_now = pf.TensionChain(phi, frame).energy(k)
        decrease = pf.integrate(frame, sf.ambient_form(phi.spec, descent, step))
        candidate = pf.MapField(
            sf.exp_map(phi.spec, phi.values, dt * step), phi.grid, phi.spec)
        if (pf.TensionChain(candidate, frame).energy(k)
                <= e_now - cfg.armijo_c * dt * decrease + 1e-13 * abs(e_now)):
            phi = candidate
            descent, row = enter(phi)
            rows.append((it, *row, dt))
            dt = min(dt / cfg.shrink, 1e3)
        else:
            rows.append((it, *row, 0.0))
            dt = min(dt * cfg.shrink, 1e3)
    return phi, rows


def assert_flow_matches_reference(phi0, cfg, rtol=0.0):
    """run_flow against reference_flow: bytewise when ``rtol`` is 0;
    otherwise the same trials, each accepted or rejected alike, with every
    trace entry within ``rtol`` relative and the end state within ``rtol``
    of its largest coordinate."""
    state, trace = pf.run_flow(phi0, cfg)
    ref_phi, ref_rows = reference_flow(phi0, cfg)
    rows, ref = np.array(trace.rows), np.array(ref_rows)
    if rtol == 0.0:
        assert rows.tobytes() == ref.tobytes()
        assert state.phi.values.tobytes() == ref_phi.values.tobytes()
        return trace
    assert rows.shape == ref.shape
    iters, dt = trace.COLUMNS.index("iter"), trace.COLUMNS.index("dt")
    assert np.array_equal(rows[:, iters], ref[:, iters])
    assert np.array_equal(rows[:, dt] == 0.0, ref[:, dt] == 0.0)
    np.testing.assert_allclose(rows, ref, rtol=rtol, atol=0.0)
    scale = np.max(np.abs(ref_phi.values))
    assert np.max(np.abs(state.phi.values - ref_phi.values)) <= rtol * scale
    return trace


@pytest.mark.parametrize("armijo_c", [1e-4, 0.99999])
def test_run_flow_matches_reference_triharmonic(armijo_c):
    # the default armijo_c converges within the budget without a rejection;
    # armijo_c = 0.99999 rejects about half of the trials and runs it out.
    # The reference steps through a formed boost frame, so H^2 rows agree to
    # roundoff: the largest difference, 7.9e-12 relative, is sup_descent
    # near grad_tol 1e-12
    phi0 = small_h2_perturbation(amplitude=0.05, k=3)
    cfg = pf.FlowConfig(kind="Triharmonic", max_iters=100, grad_tol=1e-12,
                        armijo_c=armijo_c)
    trace = assert_flow_matches_reference(phi0, cfg, rtol=1e-10)
    rejects = armijo_c > 0.5
    assert trace.status == ("max_iters" if rejects else "converged")
    assert len(trace.rows) == 101 if rejects else len(trace.rows) > 10
    assert (0.0 in trace.column("dt")) == rejects


def test_run_flow_matches_reference_torus():
    # a 2-d state: the implicit step divides by |q|^4 over both axes
    cfg = pf.FlowConfig(kind="Biharmonic", max_iters=5, grad_tol=1e-14)
    trace = assert_flow_matches_reference(h3_torus_32(), cfg, rtol=1e-10)
    assert trace.status == "max_iters" and len(trace.rows) == 6
