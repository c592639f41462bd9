"""Gradient flows for the energy ladder, with Armijo backtracking.

The descent direction for each flow is the corresponding tension-type
field (tension, bitension, tritension).  Each Armijo trial
(:func:`flow_step`) reads the descent field's visible band once per axis
(the Fourier modes at least _CAP_VISIBILITY of the axis's largest) and
takes from it both the step, the band-limited descent re-projected onto
the tangent space, and the stability cap; it tries ``min(dt, cap)``.  The
first-variation formula pairs the step with the descent field, so an
accepted Armijo step can never increase the energy being flowed.  Steps
move along target geodesics via the exponential map and the state is
re-projected onto the model every step.  :func:`run_flow` owns Armijo's
step memory ``dt``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import space_form as sf
from .domain_grid import (
    DomainGrid,
    FrameField,
    identity_metric,
    induced_metric,
    integrate,
    orthonormal_frame,
    whole_number,
)
from .errors import DegenerateImmersion, PolyflowError, StepUnderflow
from .pullback import MapField, Section, TensionChain

__all__ = [
    "FlowKind",
    "MetricPolicy",
    "FlowConfig",
    "FlowTrace",
    "ProbeVerdict",
    "Trial",
    "flow_frame",
    "flow_step",
    "run_flow",
    "theorem_probe",
]

DT_FLOOR = 1e-14


class FlowKind(str, Enum):
    HARMONIC = "Harmonic"
    BIHARMONIC = "Biharmonic"
    TRIHARMONIC = "Triharmonic"


class MetricPolicy(str, Enum):
    FIXED_PRESCRIBED = "FixedPrescribed"
    REINDUCE_EACH_STEP = "ReInduceEachStep"


# Order k of the flowed energy E_k.  Its descent operator has differential
# order 2k, so a mode of wavenumber q is explicitly stable only for dt below
# ~2/q^(2k); the default first step is 0.1 h^(k+1).
_ENERGY_ORDER = {FlowKind.HARMONIC: 1, FlowKind.BIHARMONIC: 2, FlowKind.TRIHARMONIC: 3}

# Spectral content of the descent field below this fraction of its largest
# coefficient lies outside its visible band: the stability cap ignores it and
# the flow step does not move it.
_CAP_VISIBILITY = 1e-6
_DT_CEILING = 1e3

# theorem_probe's verdict: triharmonic when sup |tau3| is below the first,
# minimal when sup |tau| is also below the second.
_TRIHARMONIC_TOL = 1e-6
_MINIMAL_TOL = 1e-4


@dataclass
class FlowConfig:
    kind: FlowKind = FlowKind.TRIHARMONIC
    dt0: float = None  # default 0.1 * h^(k+1), k the energy order
    max_iters: int = 10000
    grad_tol: float = 1e-8
    armijo_c: float = 1e-4
    shrink: float = 0.5
    metric_policy: MetricPolicy = MetricPolicy.FIXED_PRESCRIBED

    def __post_init__(self):
        self.kind = FlowKind(self.kind)
        self.metric_policy = MetricPolicy(self.metric_policy)
        self.max_iters = whole_number(self.max_iters, "max_iters")
        self.grad_tol = float(self.grad_tol)
        self.armijo_c = float(self.armijo_c)
        self.shrink = float(self.shrink)
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if self.dt0 is not None and not self.dt0 > 0.0:
            raise ValueError("dt0 must be positive")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")

    def initial_dt(self, grid: DomainGrid) -> float:
        if self.dt0 is not None:
            return self.dt0
        return 0.1 * min(grid.spacings) ** (_ENERGY_ORDER[self.kind] + 1)


@dataclass
class FlowTrace:
    """Per-trial history: one tuple per trial in ``rows``, under ``COLUMNS``.

    Rejected trials repeat the current state with dt = 0.  ``dt_cap`` is the
    stability cap of each trial, so an accepted row is cap-bound exactly
    when dt == dt_cap."""

    rows: list = field(default_factory=list)
    status: str = "running"

    COLUMNS = (
        "iter",
        "E",
        "E2",
        "E3",
        "Etilde4",
        "L4_tension",
        "sup_tau",
        "sup_descent",
        "dt",
        "dt_cap",
    )

    def column(self, name: str) -> list:
        i = self.COLUMNS.index(name)
        return [row[i] for row in self.rows]

    def accepted_series(self, name: str) -> list:
        return [v for v, dt in zip(self.column(name), self.column("dt")) if dt > 0.0]


class Trial(NamedTuple):
    """One Armijo trial: the state it leaves (the candidate if accepted,
    else the state it started from) and that state's tension chain, the
    step size it tried and the stability cap that bounded it."""

    phi: MapField
    accepted: bool
    chain: TensionChain
    dt: float
    cap: float


def flow_step(phi: MapField, frame: FrameField, cfg: FlowConfig, dt: float,
              chain: TensionChain = None) -> Trial:
    """One Armijo trial at ``min(dt, cap)``, ``dt`` being the caller's step.

    ``chain`` is the tension chain of ``(phi, frame)``, built here when not
    given; it supplies the descent field and the current energy.  The step
    direction and the stability cap both come from the descent field's
    visible band (:func:`_visible_step`).  The candidate is
    exp_phi(dt * step), which ends on the model; it is accepted iff the
    flowed energy drops by at least armijo_c * dt * Int <descent, step>, up
    to a relative float-resolution slack (1e-13 |E|, well inside the 1e-12
    monotonicity contract) so the search cannot stall on energy differences
    below evaluation roundoff.  On rejection the state and its chain are
    returned unchanged.  Choosing the next ``dt`` is :func:`run_flow`'s.
    """
    if chain is None:
        chain = TensionChain(phi, frame)
    k = _ENERGY_ORDER[cfg.kind]
    descent = chain.field(k)
    step, cap = _visible_step(descent, frame, cfg.kind)
    dt = min(dt, cap)
    if dt < DT_FLOOR:
        raise StepUnderflow(f"step size underflow: dt = {dt:.3e}")
    if chain.sup_norm(k) == 0.0:
        return Trial(phi, True, chain, dt, cap)
    e_now = chain.energy(k)
    decrease = integrate(phi.grid, frame,
                         sf.inner(phi.spec, phi.values, descent.values, step))
    candidate = MapField(values=sf.exp_map(phi.spec, phi.values, dt * step),
                         grid=phi.grid, spec=phi.spec)
    trial = TensionChain(candidate, frame)
    if trial.energy(k) <= e_now - cfg.armijo_c * dt * decrease + 1e-13 * abs(e_now):
        return Trial(candidate, True, trial, dt, cap)
    return Trial(phi, False, chain, dt, cap)


def _visible_step(descent: Section, frame: FrameField, kind: FlowKind) -> tuple:
    """``(step, cap)``, both read from the descent field's visible band.

    Per node axis, the band is the largest mode index whose coefficient in
    the rfft of the unfiltered ``descent`` (the largest over the other axes
    and the components) is at least _CAP_VISIBILITY of the axis's largest.
    Only modes a first derivative sees count, so the Nyquist mode
    (wavenumber 0 in ``deriv``) never sets it; with no such mode it is 0.

    ``step`` is the descent with every mode above its band zeroed, one axis
    at a time, projected onto the tangent space: content the cap cannot see
    is never stepped, so its roundoff is never amplified.  ``cap`` is the
    largest explicitly stable step for the bands.  An explicit step
    multiplies a mode of wavenumber q by roughly (1 - dt q^p), p the
    operator order, so modes with dt q^p > 2 grow, and the Armijo test only
    notices once they are baked into the state.  The cap is 1 / lambda_max,
    lambda_max estimated from each axis's band wavenumber scaled by the
    frame coefficients, which bound the metric.
    """
    phi, grid = descent.base, frame.grid
    values = descent.values
    k_total = 0.0
    for axis in range(grid.dims):
        spectrum = np.fft.rfft(descent.values, axis=axis)
        profile = np.abs(spectrum).max(
            axis=tuple(i for i in range(spectrum.ndim) if i != axis))
        top = profile.max()
        visible = np.flatnonzero((profile >= _CAP_VISIBILITY * top)
                                 & (grid._wavenumbers[axis] > 0.0))
        band = int(visible[-1]) if top > 0.0 and visible.size else 0
        e_axis = float(np.max(np.abs(frame.e[..., :, axis])))
        k_total += float(grid._wavenumbers[axis][band]) * e_axis
        if axis > 0:  # transform the field already filtered along earlier axes
            spectrum = np.fft.rfft(values, axis=axis)
        spectrum[(slice(None),) * axis + (slice(band + 1, None),)] = 0.0
        values = np.fft.irfft(spectrum, n=values.shape[axis], axis=axis)
    order = 2 * _ENERGY_ORDER[FlowKind(kind)]
    cap = 1.0 / k_total**order if k_total > 0.0 else _DT_CEILING
    return sf.project_tangent(phi.spec, phi.values, values), cap


def flow_frame(phi: MapField, cfg: FlowConfig) -> FrameField:
    """Frame of a flow state under ``cfg.metric_policy``: flat for
    FixedPrescribed, induced by ``phi`` (which must immerse) for
    ReInduceEachStep."""
    if cfg.metric_policy is MetricPolicy.REINDUCE_EACH_STEP:
        return orthonormal_frame(phi.grid, induced_metric(phi))
    return orthonormal_frame(phi.grid, identity_metric(phi.grid))


def _trace_metrics(chain: TensionChain) -> tuple:
    """A state's trace columns E to sup_tau."""
    return (chain.energy(1), chain.energy(2), chain.energy(3), chain.etilde4,
            chain.tension_lp(4.0), chain.sup_norm(1))


def run_flow(phi0: MapField, cfg: FlowConfig):
    """Iterate Armijo steps until sup |descent| <= grad_tol or max_iters.

    Every state (``phi0`` at step 0, then each accepted trial, which
    ``exp_map`` projected onto the model) is entered the same way: framed
    by :func:`flow_frame`, once under FixedPrescribed and per state under
    ReInduceEachStep, where the flowed energy need not decrease since the
    functional changes with the metric; then its trace row is recorded from
    its tension chain.  On an unchanged frame that is the chain the Armijo
    trial built for it.

    Each trial is one :func:`flow_step` at Armijo's step memory ``dt``,
    which only this loop changes: an accepted trial the cap did not clip
    sets it to the step over ``shrink``, a rejected trial to the step times
    ``shrink`` (both at most ``_DT_CEILING``), and an accepted capped trial
    leaves it unchanged.

    Returns ``(phi_final, trace)``; a step-size underflow is reported as
    ``trace.status == "stalled"``, a state that cannot be projected or
    framed (e.g. it does not immerse under ReInduceEachStep) as
    ``"degenerate"``, and one with a non-finite trace row as
    ``"nonfinite"``.  Either way the last good state and the partial trace
    are returned; when ``phi0`` itself cannot be entered, that is an empty
    trace and a copy of ``phi0``.
    """
    k = _ENERGY_ORDER[cfg.kind]
    reinduce = cfg.metric_policy is MetricPolicy.REINDUCE_EACH_STEP
    dt = cfg.initial_dt(phi0.grid)
    trace = FlowTrace()
    phi = candidate = phi0.copy()
    frame, dt_used, cap = None, math.nan, math.nan

    for it in range(cfg.max_iters + 1):
        try:
            if it > 0:
                candidate, accepted, chain, dt_used, cap = flow_step(
                    phi, frame, cfg, dt, chain=chain)
                if not accepted:
                    dt = min(dt_used * cfg.shrink, _DT_CEILING)
                    trace.rows.append((it, *row, 0.0, cap))
                    continue
                if dt_used == dt:
                    dt = min(dt / cfg.shrink, _DT_CEILING)
            if frame is None or reinduce:
                frame = flow_frame(candidate, cfg)
                chain = TensionChain(candidate, frame)
            sup_descent = chain.sup_norm(k)
            row = (*_trace_metrics(chain), sup_descent)
        except StepUnderflow:
            trace.status = "stalled"
            return phi, trace
        except PolyflowError:
            trace.status = "degenerate"
            return phi, trace
        if not all(map(math.isfinite, row)):
            trace.status = "nonfinite"
            return phi, trace
        phi = candidate
        trace.rows.append((it, *row, dt_used, cap))
        if sup_descent <= cfg.grad_tol:
            trace.status = "converged"
            return phi, trace

    trace.status = "max_iters"
    return phi, trace


@dataclass
class ProbeVerdict:
    """Diagnostics of a terminal flow state against the vanishing theory.

    ``classification`` is "minimal" when the state is triharmonic to
    tolerance and its tension field vanishes to tolerance,
    "nonminimal-candidate" when it is triharmonic but carries tension
    (reported without interpretation), and "inconclusive" otherwise.
    ``E`` is the state's energy and ``immersed`` whether its induced metric
    passes :func:`induced_metric`'s guard: the vanishing theorem is about
    isometric immersions, so a constant (E = 0) or non-immersed state gets a
    caveat saying its classification does not test the theorem.
    """

    E: float
    immersed: bool
    sup_tau3: float
    etilde4: float
    l4_tension: float
    sup_tau: float
    tau_sq_node_variance: float
    sup_grad_laplacian_tau: float
    sup_laplacian_tau: float
    cmc_coefficient_of_variation: float
    classification: str
    constancy_diagnostics: dict = field(default_factory=dict)
    caveats: list = field(default_factory=list)
    triharmonic_tol: float = field(default=_TRIHARMONIC_TOL, init=False)
    minimal_tol: float = field(default=_MINIMAL_TOL, init=False)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["Etilde4"] = out.pop("etilde4")
        out["L4_tension"] = out.pop("l4_tension")
        return out


def theorem_probe(
    phi: MapField,
    trace: FlowTrace,
    frame: FrameField,
    chain: TensionChain = None,
) -> ProbeVerdict:
    """Measure a terminal state against the vanishing predictions.

    Reports the triharmonicity defect sup |tau3|, the finiteness surrogates
    Etilde4 and Int |tau|^4 (always finite on a compact grid), the
    minimality measures sup |tau| and the node variance of |tau|^2, the
    parallelism measure sup |nabla Delta tau|, and a constant-mean-curvature
    diagnostic (coefficient of variation of |tau|; measured, never
    enforced).  ``chain`` is the state's tension chain, if already built.
    """
    grid = phi.grid
    if chain is None:
        chain = TensionChain(phi, frame)
    tau_norm = chain.tau_norm
    grad_lap_sq = chain.grad_lap_tau_sq

    sup_tau = chain.sup_norm(1)
    sup_tau3 = chain.sup_norm(3)
    mean_norm = float(np.mean(tau_norm))
    cv = float(np.std(tau_norm) / mean_norm) if mean_norm > 1e-12 else 0.0

    # diagnostic only: when Int |alpha|^2 |nabla alpha|^2 is tiny, the
    # smooth theory forces |alpha| constant; report the observed variance
    # of |alpha| rather than asserting a smooth-section statement on
    # discrete data.
    constancy = {}
    for name, a_norm, grad_sq in (
        ("tension", tau_norm, chain.grad_tau_sq),
        ("laplacian_tau", chain.lap_norm, grad_lap_sq),
    ):
        weighted = integrate(grid, frame, a_norm**2 * grad_sq)
        constancy[name] = {
            "weighted_gradient_integral": weighted,
            "norm_variance": float(np.var(a_norm)),
            "constancy_expected": bool(weighted <= 1e-10),
        }

    if sup_tau3 <= _TRIHARMONIC_TOL:
        classification = "minimal" if sup_tau <= _MINIMAL_TOL else "nonminimal-candidate"
    else:
        classification = "inconclusive"

    caveats = [
        "compact periodic domain: every energy is finite by construction, "
        "so finiteness and completeness hypotheses are modeled, not tested",
        "flow status: " + trace.status,
    ]
    energy = chain.energy(1)
    try:
        induced_metric(phi)
        immersed = True
    except DegenerateImmersion:
        immersed = False
    if energy == 0.0:
        caveats.append("the state is constant (E = 0), not an immersion: its "
                       "classification does not test the vanishing theorem")
    elif not immersed:
        caveats.append("the state does not immerse: its classification does "
                       "not test the vanishing theorem, which assumes an "
                       "isometric immersion")

    return ProbeVerdict(
        E=energy,
        immersed=immersed,
        sup_tau3=sup_tau3,
        etilde4=chain.etilde4,
        l4_tension=chain.tension_lp(4.0),
        sup_tau=sup_tau,
        tau_sq_node_variance=float(np.var(tau_norm**2)),
        sup_grad_laplacian_tau=float(np.sqrt(np.max(np.maximum(grad_lap_sq, 0.0)))),
        sup_laplacian_tau=float(np.max(chain.lap_norm)),
        cmc_coefficient_of_variation=cv,
        classification=classification,
        constancy_diagnostics=constancy,
        caveats=caveats,
    )
