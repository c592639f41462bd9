"""Gradient flows: descent fields, Armijo steps, convergence, probe."""

import itertools
import math

import numpy as np
import pytest

import polyflow as pf
from polyflow import flow as flow_module
from polyflow import space_form as sf
from polyflow.errors import StepUnderflow
from polyflow.flow import _visible_step, flow_frame

from conftest import frame_for

TWO_PI = 2 * np.pi


def small_h2_perturbation(n=64, amplitude=0.02, k=2):
    grid = pf.build_grid(pf.GridSpec(1, (n,), (TWO_PI,)))
    spec = pf.SpaceFormSpec(-1.0, 2)
    return pf.builtin_map(
        "PerturbedGeodesicH2", {"amplitude": amplitude, "k": k}, grid, spec
    )


def test_descent_field_matches_tension_fields(flat_circle):
    frame = frame_for(flat_circle, induced=False)
    tau = pf.tension(flat_circle, frame)
    chain = pf.TensionChain(flat_circle, frame)
    d1, d3 = chain.field(1), chain.field(3)
    assert np.max(np.abs(d1.values - tau.values)) == 0.0
    assert np.max(np.abs(d3.values - tau.values)) <= 1e-11  # tau3 = tau at r=1


def test_descent_field_geodesic_zero(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    frame = frame_for(phi, induced=False)
    chain = pf.TensionChain(phi, frame)
    for k in (1, 2, 3):
        assert np.max(chain.field(k).norm_field()) <= 1e-9


def test_flow_step_zero_descent_fixed_point(circle_grid):
    phi = pf.builtin_map("PerturbedGeodesicH2", {"amplitude": 0.0, "k": 2},
                         circle_grid, pf.SpaceFormSpec(-1.0, 2))
    frame = frame_for(phi, induced=False)
    cfg = pf.FlowConfig(kind="Triharmonic")
    trial = pf.flow_step(phi, frame, cfg, 1e-3)
    assert trial.accepted
    assert trial.phi is phi


def test_flow_step_armijo_reject_shrinks(flat_circle):
    frame = frame_for(flat_circle, induced=False)
    cfg = pf.FlowConfig(kind="Harmonic", shrink=0.5, armijo_c=0.99999)
    # the cap clips dt = 50 to 1, where the unit circle's energy drops by pi
    # (half the first-order prediction), short of the Armijo bound
    trial = pf.flow_step(flat_circle, frame, cfg, 50.0)
    assert trial.dt == trial.cap == pytest.approx(1.0, rel=1e-12)
    assert not trial.accepted
    assert trial.phi is flat_circle


def test_flow_step_accept_grows(flat_circle):
    frame = frame_for(flat_circle, induced=False)
    cfg = pf.FlowConfig(kind="Harmonic", shrink=0.5, armijo_c=1e-4)
    trial = pf.flow_step(flat_circle, frame, cfg, 1e-3)
    assert trial.accepted and trial.dt == 1e-3
    frame2 = frame_for(trial.phi, induced=False)
    assert pf.energy_k(trial.phi, frame2, 1) < pf.energy_k(flat_circle, frame, 1)


def test_flow_step_underflow(flat_circle):
    frame = frame_for(flat_circle, induced=False)
    cfg = pf.FlowConfig(kind="Harmonic")
    with pytest.raises(StepUnderflow):
        pf.flow_step(flat_circle, frame, cfg, 1e-15)


def test_harmonic_flow_shrinks_circle(flat_circle):
    # curve-shortening behavior: the radius and the energy both decrease
    cfg = pf.FlowConfig(kind="Harmonic", max_iters=50, grad_tol=1e-12)
    phi, trace = pf.run_flow(flat_circle, cfg)
    assert trace.column("E")[-1] < trace.column("E")[0]
    assert np.max(np.linalg.norm(phi.values, axis=-1)) < 1.0


def test_run_flow_geodesic_immediate(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    cfg = pf.FlowConfig(kind="Triharmonic", grad_tol=1e-8, max_iters=100)
    out, trace = pf.run_flow(phi, cfg)
    assert trace.status == "converged"
    assert trace.column("iter") == [0]
    np.testing.assert_array_equal(out.values, phi.values)


def test_stability_cap_scales_with_content(flat_circle):
    frame = frame_for(flat_circle, induced=False)
    tau = pf.tension(flat_circle, frame)  # pure wavenumber 1
    _, cap1 = _visible_step(tau, frame, "Triharmonic")
    assert cap1 == pytest.approx(1.0, rel=1e-6)
    s = flat_circle.grid.axes[0]
    wobble = pf.Section(
        values=tau.values + 0.001 * np.stack([np.sin(4 * s), np.cos(4 * s)], -1),
        base=flat_circle,
    )
    _, cap4 = _visible_step(wobble, frame, "Triharmonic")
    assert cap4 == pytest.approx(4.0**-6, rel=1e-6)


def test_stability_cap_ignores_nyquist(flat_circle):
    # the first derivative annihilates the Nyquist mode, so no step grows it
    frame = frame_for(flat_circle, induced=False)
    s = flat_circle.grid.axes[0]
    n = s.size
    nyquist = pf.Section(values=np.stack([np.cos(n // 2 * s), np.sin(4 * s)], -1),
                         base=flat_circle)
    _, cap = _visible_step(nyquist, frame, "Triharmonic")
    assert cap == pytest.approx(4.0**-6, rel=1e-6)


def test_step_direction_drops_modes_above_the_visible_band(flat_circle):
    # content at k = 4 is kept; content at k = 40, 1e-8 of it, lies below
    # the visibility cutoff and is removed down to transform roundoff.  In
    # a flat target every vector is tangent; see the H^2 test for tangency
    s = flat_circle.grid.axes[0]
    low = np.stack([np.cos(4 * s), np.sin(4 * s)], -1)
    high = 1e-8 * np.stack([np.sin(40 * s), np.cos(40 * s)], -1)
    step, _ = _visible_step(pf.Section(values=low + high, base=flat_circle),
                            frame_for(flat_circle, induced=False), "Triharmonic")
    assert np.max(np.abs(step - low)) <= 1e-12
    coeffs = np.abs(np.fft.rfft(step, axis=0))
    assert np.max(coeffs[40]) <= 1e-14 * np.max(coeffs[4])  # input: 1e-8


def test_step_direction_is_tangent_in_h2():
    # band-limiting a tangent field moves it slightly off the tangent
    # space; the step is projected back
    phi = small_h2_perturbation(amplitude=0.05, k=3)
    frame = frame_for(phi, induced=False)
    descent = pf.TensionChain(phi, frame).field(3)
    step, _ = _visible_step(descent, frame, "Triharmonic")
    normal = sf.ambient_form(phi.spec, phi.values, step)
    assert np.max(np.abs(normal)) <= 1e-13 * np.max(np.abs(step))
    assert np.max(np.abs(step - descent.values)) <= 1e-6 * np.max(np.abs(step))


def test_band_limited_flow_keeps_the_cap_up():
    # modes above the visible band are not stepped, so their roundoff never
    # grows into view and the cap never collapses for a step to kill it
    cfg = pf.FlowConfig(kind="Triharmonic", max_iters=300, grad_tol=1e-12)
    _, trace = pf.run_flow(small_h2_perturbation(), cfg)
    assert len(trace.rows) == 301
    assert min(trace.column("dt_cap")[1:]) >= 1e-8


def test_probe_flags_constant_state():
    # the constant map is triharmonic and "minimal", but not an immersion
    phi = small_h2_perturbation(amplitude=0.0)
    _, trace = pf.run_flow(phi, pf.FlowConfig(kind="Triharmonic"))
    probe = pf.theorem_probe(phi, trace, frame_for(phi, induced=False))
    assert probe.classification == "minimal"
    assert probe.E == 0.0 and probe.immersed is False
    assert any("constant (E = 0)" in c for c in probe.caveats)


def test_triharmonic_flow_converges_small():
    phi0 = small_h2_perturbation()
    cfg = pf.FlowConfig(kind="Triharmonic", max_iters=60000, grad_tol=1e-8)
    phi, trace = pf.run_flow(phi0, cfg)
    assert trace.status == "converged"
    assert trace.column("iter")[-1] <= 3500
    e3 = trace.accepted_series("E3")
    diffs = np.diff(e3)
    assert np.all(diffs <= 1e-12 * np.abs(np.asarray(e3[:-1])))
    assert phi.constraint_residual() <= 1e-10

    # critical-point consistency: the terminal state is stationary in all
    # tested directions
    frame = frame_for(phi, induced=False)
    for seed in range(10):
        V = pf.random_tangent_section(phi, seed=seed)
        assert pf.first_variation_residual(phi, V, frame, 3, 1e-3) <= 1e-6

    probe = pf.theorem_probe(phi, trace, frame)
    assert probe.classification == "minimal"
    assert probe.sup_tau <= 1e-4
    assert probe.tau_sq_node_variance <= 1e-8
    tension_diag = probe.constancy_diagnostics["tension"]
    assert tension_diag["constancy_expected"]
    assert tension_diag["norm_variance"] <= 1e-8


def test_biharmonic_flow_decreases_e2():
    phi0 = small_h2_perturbation(amplitude=0.01)
    cfg = pf.FlowConfig(kind="Biharmonic", max_iters=2000, grad_tol=1e-7)
    phi, trace = pf.run_flow(phi0, cfg)
    e2 = trace.accepted_series("E2")
    assert e2[-1] < e2[0]
    diffs = np.diff(e2)
    assert np.all(diffs <= 1e-12 * np.abs(np.asarray(e2[:-1])))


def test_harmonic_flow_perturbed_great_circle():
    grid = pf.build_grid(pf.GridSpec(1, (64,), (TWO_PI,)))
    spec = pf.SpaceFormSpec(1.0, 2)
    base = pf.builtin_map("GreatCircleS2", {}, grid, spec)
    bump = pf.Section(
        values=sf.project_tangent(
            spec, base.values,
            0.05 * np.sin(2 * grid.axes[0])[..., None] * np.array([0.0, 0.0, 1.0]),
        ),
        base=base,
    )
    phi0 = pf.vary(base, bump, 1.0)
    cfg = pf.FlowConfig(kind="Harmonic", max_iters=20000, grad_tol=1e-8)
    phi, trace = pf.run_flow(phi0, cfg)
    assert trace.status == "converged"
    frame = frame_for(phi, induced=False)
    assert np.max(pf.tension(phi, frame).norm_field()) <= 1e-8


def test_reinduce_policy_keeps_immersion(torus_grid):
    phi0 = pf.builtin_map("TorusCliffordLike", {"alpha": np.pi / 5}, torus_grid,
                          pf.SpaceFormSpec(1.0, 3))
    cfg = pf.FlowConfig(kind="Harmonic", max_iters=5, grad_tol=1e-14,
                        metric_policy="ReInduceEachStep")
    phi, trace = pf.run_flow(phi0, cfg)
    metric = pf.induced_metric(phi)  # still immerses
    assert metric.mode is pf.MetricMode.INDUCED
    assert len(trace.rows) == 6


def test_probe_geodesic_minimal(circle_grid):
    phi = pf.builtin_map("GreatCircleS2", {}, circle_grid, pf.SpaceFormSpec(1.0, 2))
    cfg = pf.FlowConfig(kind="Triharmonic", grad_tol=1e-8, max_iters=10)
    out, trace = pf.run_flow(phi, cfg)
    frame = frame_for(out, induced=False)
    probe = pf.theorem_probe(out, trace, frame)
    assert probe.classification == "minimal"
    assert probe.sup_tau <= 1e-12
    assert probe.sup_tau3 <= 1e-9
    assert probe.caveats


def test_capped_step_keeps_step_memory(monkeypatch):
    # the cap binds on the third trial only: the fourth resumes from the
    # step memory of before it, not from the cap, and unclipped steps double
    trial = itertools.count(1)

    def cap_third_trial(descent, frame, kind):
        step, cap = _visible_step(descent, frame, kind)
        return step, 1e-9 if next(trial) == 3 else cap

    monkeypatch.setattr(flow_module, "_visible_step", cap_third_trial)
    dt0 = 1e-7
    cfg = pf.FlowConfig(kind="Triharmonic", max_iters=5, grad_tol=1e-12, dt0=dt0)
    _, trace = pf.run_flow(small_h2_perturbation(), cfg)
    assert trace.status == "max_iters"
    dts, caps = trace.column("dt")[1:], trace.column("dt_cap")[1:]
    assert [i for i, (dt, c) in enumerate(zip(dts, caps)) if dt == c] == [2]
    assert dts == [dt0, 2 * dt0, 1e-9, 4 * dt0, 8 * dt0]


def test_trace_rows_and_columns(flat_circle):
    cfg = pf.FlowConfig(kind="Harmonic", max_iters=3, grad_tol=1e-14)
    _, trace = pf.run_flow(flat_circle, cfg)
    rows = trace.rows
    assert len(rows) == len(trace.column("iter"))
    assert len(rows[0]) == len(trace.COLUMNS)


def test_reinduce_degenerate_keeps_partial_trace():
    # a small hyperbolic circle shrinks under the harmonic flow until the
    # next state no longer immerses; the flow ends with the last good state
    grid = pf.build_grid(pf.GridSpec(1, (64,), (TWO_PI,)))
    phi0 = pf.builtin_map("Circle", {"r": 0.3}, grid, pf.SpaceFormSpec(-1.0, 2))
    cfg = pf.FlowConfig(kind="Harmonic", max_iters=50, grad_tol=1e-8,
                        metric_policy="ReInduceEachStep")
    phi, trace = pf.run_flow(phi0, cfg)
    assert trace.status == "degenerate"
    assert trace.column("iter") == list(range(len(trace.rows)))
    assert len(trace.rows) > 1
    assert all(dt > 0.0 for dt in trace.column("dt")[1:])
    assert pf.induced_metric(phi).mode is pf.MetricMode.INDUCED  # still immerses
    frame = pf.orthonormal_frame(grid, pf.induced_metric(phi))
    assert pf.energy_k(phi, frame, 1) == trace.column("E")[-1]


def test_run_flow_degenerate_at_step_0():
    # the initial map does not immerse, so ReInduceEachStep cannot frame it
    phi0 = small_h2_perturbation(amplitude=0.05, k=3)
    cfg = pf.FlowConfig(kind="Triharmonic", metric_policy="ReInduceEachStep")
    phi, trace = pf.run_flow(phi0, cfg)
    assert trace.status == "degenerate"
    assert trace.column("iter") == [] and trace.rows == []
    assert phi is not phi0
    assert np.array_equal(phi.values, phi0.values)


def test_run_flow_nonfinite_at_step_0():
    # cosh overflows for a hyperbolic circle of radius 800, so the initial
    # map is not finite and the flow enters no state
    grid = pf.build_grid(pf.GridSpec(1, (64,), (TWO_PI,)))
    with pytest.warns(RuntimeWarning):
        phi0 = pf.builtin_map("Circle", {"r": 800.0}, grid, pf.SpaceFormSpec(-1.0, 2))
    phi, trace = pf.run_flow(phi0, pf.FlowConfig(kind="Triharmonic"))
    assert trace.status == "nonfinite"
    assert trace.column("iter") == [] and trace.rows == []
    assert phi is not phi0
    assert np.array_equal(phi.values, phi0.values, equal_nan=True)


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
    phi, trace = pf.run_flow(small_h2_perturbation(), cfg)
    assert trace.status == "nonfinite"
    assert trace.column("iter") == [0, 1, 2]
    assert phi is entered[2]


def visible_bands(values):
    """Per node axis, the largest Fourier mode whose coefficient (largest
    over the other axes and the components) reaches 1e-6 of the largest;
    the mean and Nyquist modes never set it, and it is 0 when no other mode
    does."""
    bands = []
    for axis, n in enumerate(values.shape[:-1]):
        mode = np.arange(n // 2 + 1)
        coeffs = np.moveaxis(np.abs(np.fft.rfft(values, axis=axis)), axis, 0)
        profile = coeffs.reshape(mode.size, -1).max(axis=1)
        seen = ((profile >= 1e-6 * profile.max()) & (profile > 0.0) & (mode > 0)
                & (2 * mode != n))
        bands.append(int(mode[seen].max()) if seen.any() else 0)
    return bands


def band_limit(values, bands):
    """Along each node axis in turn, zero every Fourier mode above its band."""
    for axis, band in enumerate(bands):
        n = values.shape[axis]
        keep = np.arange(n // 2 + 1) <= band
        keep = keep.reshape((-1,) + (1,) * (values.ndim - axis - 1))
        values = np.fft.irfft(np.where(keep, np.fft.rfft(values, axis=axis), 0.0),
                              n=n, axis=axis)
    return values


def reference_cap(bands, frame, k):
    """1 / (sum_a band_a max |e[..., :, a]|)^(2k), at most 1e3: the explicit
    stability edge of the bands on 2 pi-periodic axes, where mode m has
    wavenumber m."""
    total = 0.0
    for axis, band in enumerate(bands):
        total += band * float(np.max(np.abs(frame.e[..., :, axis])))
    return 1.0 / total ** (2 * k) if total > 0.0 else 1e3


def reference_flow(phi0, cfg):
    """run_flow as a plain loop: every energy and descent field from a fresh
    tension chain, the cap and the band limit from its own band reading,
    the step the band-limited descent projected onto the tangent space, and
    the Armijo trial projected once, by exp_map."""
    k = {"Harmonic": 1, "Biharmonic": 2, "Triharmonic": 3}[cfg.kind.value]
    reinduce = cfg.metric_policy is pf.MetricPolicy.REINDUCE_EACH_STEP
    phi, dt, rows = phi0.copy(), cfg.initial_dt(phi0.grid), []
    frame = flow_frame(phi, cfg)

    def enter(state):
        report = pf.energy_report(state, frame)
        descent = pf.TensionChain(state, frame).field(k)
        return descent, (report.E, report.E2, report.E3, report.Etilde4,
                         report.Lp_tension[4.0], report.sup_tau,
                         float(np.max(descent.norm_field())))

    descent, row = enter(phi)
    rows.append((0, *row, math.nan, math.nan))
    for it in range(1, cfg.max_iters + 1):
        if row[-1] <= cfg.grad_tol:
            break
        bands = visible_bands(descent.values)
        cap = reference_cap(bands, frame, k)
        dt_used = min(dt, cap)
        e_now = pf.energy_k(phi, frame, k)
        step = sf.project_tangent(phi.spec, phi.values,
                                  band_limit(descent.values, bands))
        decrease = pf.integrate(phi.grid, frame, sf.inner(
            phi.spec, phi.values, descent.values, step))
        candidate = pf.MapField(
            sf.exp_map(phi.spec, phi.values, dt_used * step), phi.grid, phi.spec)
        if (pf.energy_k(candidate, frame, k)
                <= e_now - cfg.armijo_c * dt_used * decrease + 1e-13 * abs(e_now)):
            if dt_used >= dt:  # a capped step keeps dt
                dt = min(dt_used / cfg.shrink, 1e3)
            phi = candidate
            if reinduce:
                frame = flow_frame(phi, cfg)
            descent, row = enter(phi)
            rows.append((it, *row, dt_used, cap))
        else:
            dt = min(dt_used * cfg.shrink, 1e3)
            rows.append((it, *row, 0.0, cap))
    return phi, rows


def assert_flow_matches_reference(phi0, cfg):
    phi, trace = pf.run_flow(phi0, cfg)
    ref_phi, ref_rows = reference_flow(phi0, cfg)
    assert np.array(trace.rows).tobytes() == np.array(ref_rows).tobytes()
    assert phi.values.tobytes() == ref_phi.values.tobytes()
    return trace


@pytest.mark.parametrize("armijo_c", [1e-4, 0.99999])
def test_run_flow_matches_reference_triharmonic(armijo_c):
    # armijo_c = 0.99999 rejects about half of the trials
    phi0 = small_h2_perturbation(amplitude=0.05, k=3)
    cfg = pf.FlowConfig(kind="Triharmonic", max_iters=100, grad_tol=1e-12,
                        armijo_c=armijo_c)
    trace = assert_flow_matches_reference(phi0, cfg)
    assert len(trace.rows) == 101
    assert (0.0 in trace.column("dt")) == (armijo_c > 0.5)


def test_run_flow_matches_reference_reinduce_torus():
    grid = pf.build_grid(pf.GridSpec(2, (32, 32), (TWO_PI, TWO_PI)))
    phi0 = pf.builtin_map("TorusCliffordLike", {"alpha": np.pi / 5}, grid,
                          pf.SpaceFormSpec(1.0, 3))
    cfg = pf.FlowConfig(kind="Biharmonic", max_iters=5, grad_tol=1e-14,
                        metric_policy="ReInduceEachStep")
    assert len(assert_flow_matches_reference(phi0, cfg).rows) == 6
