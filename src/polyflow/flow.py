"""Gradient flows for the energy ladder, with Armijo backtracking.

The descent direction for each flow is the corresponding tension-type
field (tension, bitension, tritension): pairing it against itself in the
first-variation formula gives a guaranteed energy decrease, so an accepted
Armijo step can never increase the energy being flowed.  Steps move along
target geodesics via the exponential map and the state is re-projected
onto the model every step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import space_form as sf
from .domain_grid import (
    DomainGrid,
    FrameField,
    MetricField,
    identity_metric,
    induced_metric,
    integrate,
    orthonormal_frame,
)
from .energy import energy_k, energy_report
from .errors import PolyflowError, StepUnderflow
from .pullback import MapField, Section, TensionChain

__all__ = [
    "FlowKind",
    "MetricPolicy",
    "FlowConfig",
    "FlowTrace",
    "ProbeVerdict",
    "descent_field",
    "flow_step",
    "run_flow",
    "stability_cap",
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


_ENERGY_ORDER = {FlowKind.HARMONIC: 1, FlowKind.BIHARMONIC: 2, FlowKind.TRIHARMONIC: 3}
_DT0_POWER = {FlowKind.HARMONIC: 2, FlowKind.BIHARMONIC: 3, FlowKind.TRIHARMONIC: 4}
# Differential order of the descent operator: a mode of wavenumber k is
# explicitly stable only for dt below ~2/k^p.
_OPERATOR_ORDER = {FlowKind.HARMONIC: 2, FlowKind.BIHARMONIC: 4, FlowKind.TRIHARMONIC: 6}

# Spectral content of the descent field below this fraction of its largest
# coefficient is ignored when estimating the stability cap.
_CAP_VISIBILITY = 1e-6
_DT_CEILING = 1e3


@dataclass
class FlowConfig:
    kind: FlowKind = FlowKind.TRIHARMONIC
    dt0: float = None  # default 0.1 * h^p, p per flow order
    max_iters: int = 10000
    grad_tol: float = 1e-8
    armijo_c: float = 1e-4
    shrink: float = 0.5
    metric_policy: MetricPolicy = MetricPolicy.FIXED_PRESCRIBED

    def __post_init__(self):
        self.kind = FlowKind(self.kind)
        self.metric_policy = MetricPolicy(self.metric_policy)
        if self.dt0 is not None and self.dt0 <= 0.0:
            raise ValueError("dt0 must be positive")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")

    def initial_dt(self, grid: DomainGrid) -> float:
        if self.dt0 is not None:
            return self.dt0
        return 0.1 * min(grid.spacings) ** _DT0_POWER[self.kind]


@dataclass
class FlowTrace:
    """Per-iteration history; rejected trials repeat the current state
    with dt = 0."""

    iters: list = field(default_factory=list)
    E: list = field(default_factory=list)
    E2: list = field(default_factory=list)
    E3: list = field(default_factory=list)
    Etilde4: list = field(default_factory=list)
    L4_tension: list = field(default_factory=list)
    sup_tau: list = field(default_factory=list)
    sup_descent: list = field(default_factory=list)
    dt_accepted: list = field(default_factory=list)
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
    )

    def record(self, it, report, sup_descent, dt):
        self.iters.append(it)
        self.E.append(report.E)
        self.E2.append(report.E2)
        self.E3.append(report.E3)
        self.Etilde4.append(report.Etilde4)
        self.L4_tension.append(report.Lp_tension[4.0])
        self.sup_tau.append(report.sup_tau)
        self.sup_descent.append(sup_descent)
        self.dt_accepted.append(dt)

    def rows(self):
        for i in range(len(self.iters)):
            yield (
                self.iters[i],
                self.E[i],
                self.E2[i],
                self.E3[i],
                self.Etilde4[i],
                self.L4_tension[i],
                self.sup_tau[i],
                self.sup_descent[i],
                self.dt_accepted[i],
            )

    def accepted_series(self, name: str) -> list:
        values = getattr(self, name)
        return [v for v, dt in zip(values, self.dt_accepted) if dt > 0.0]


def descent_field(phi: MapField, frame: FrameField, kind: FlowKind) -> Section:
    """Steepest-descent direction of the flowed energy: tau, tau2 or tau3."""
    return TensionChain(phi, frame).field(_ENERGY_ORDER[FlowKind(kind)])


def flow_step(
    phi: MapField,
    frame: FrameField,
    cfg: FlowConfig,
    dt: float,
    chain: TensionChain = None,
):
    """One Armijo trial step.

    ``chain`` is the tension chain of ``(phi, frame)``, built here when not
    given; it supplies the descent field and the current energy.
    Returns ``(phi_next, accepted, dt_next)``.  The candidate is
    exp_phi(dt * descent); it is accepted iff the flowed energy drops by at
    least armijo_c * dt * Int |descent|^2, up to a relative float-resolution
    slack (1e-13 |E|, well inside the 1e-12 monotonicity contract) so the
    search cannot stall on energy differences below evaluation roundoff.
    On rejection the state is returned unchanged with a shrunk step.
    """
    if dt < DT_FLOOR:
        raise StepUnderflow(f"step size underflow: dt = {dt:.3e}")
    if chain is None:
        chain = TensionChain(phi, frame)
    k = _ENERGY_ORDER[cfg.kind]
    descent = chain.field(k)
    sup_descent = float(np.max(descent.norm_field()))
    if sup_descent == 0.0:
        return phi, True, dt
    e_now = chain.energy(k)
    grad_sq = integrate(
        phi.grid, frame, sf.inner(phi.spec, phi.values, descent.values, descent.values)
    )
    candidate = MapField(
        values=sf.exp_map(phi.spec, phi.values, dt * descent.values),
        grid=phi.grid,
        spec=phi.spec,
    )
    e_new = energy_k(candidate, frame, k)
    if e_new <= e_now - cfg.armijo_c * dt * grad_sq + 1e-13 * abs(e_now):
        return candidate, True, dt / cfg.shrink
    return phi, False, dt * cfg.shrink


def _frame_for(phi: MapField, cfg: FlowConfig, metric: MetricField) -> FrameField:
    if cfg.metric_policy is MetricPolicy.REINDUCE_EACH_STEP:
        return orthonormal_frame(phi.grid, induced_metric(phi))
    return orthonormal_frame(phi.grid, metric)


def _trace_metrics(chain: TensionChain):
    return energy_report(chain.phi, chain.frame, p_list=(2.0, 4.0),
                         with_tritension=False, chain=chain)


def stability_cap(descent: Section, frame: FrameField, kind: FlowKind) -> float:
    """Largest explicitly stable step for the visible descent spectrum.

    An explicit step multiplies a descent mode of wavenumber k by roughly
    (1 - dt k^p), p the operator order, so modes with dt k^p > 2 grow and
    the Armijo test only notices after they are baked into the state.  The
    cap is 1 / lambda_max with lambda_max estimated from the largest
    wavenumber carrying at least _CAP_VISIBILITY of the field's spectrum
    (frame coefficients bound the metric scaling).  Content below the
    visibility cutoff is handled reactively: if it grows it becomes
    visible, the cap drops, and one capped step annihilates it.
    """
    grid = frame.grid
    order = _OPERATOR_ORDER[FlowKind(kind)]
    k_total = 0.0
    for axis in range(grid.dims):
        fh = np.abs(np.fft.fft(descent.values, axis=axis))
        reduce_axes = tuple(i for i in range(fh.ndim) if i != axis)
        profile = fh.max(axis=reduce_axes)
        top = profile.max()
        if top <= 0.0:
            continue
        kmag = np.abs(grid._wavenumbers[axis])
        visible = profile >= _CAP_VISIBILITY * top
        k_axis = float(kmag[visible].max())
        e_axis = float(np.max(np.abs(frame.e[..., :, axis])))
        k_total += k_axis * e_axis
    if k_total <= 0.0:
        return _DT_CEILING
    return 1.0 / k_total**order


def run_flow(phi0: MapField, cfg: FlowConfig, metric: MetricField = None):
    """Iterate Armijo steps until sup |descent| <= grad_tol or max_iters.

    ``metric`` seeds the FixedPrescribed policy (identity by default); with
    ReInduceEachStep the metric is re-induced after every accepted step, and
    monotonicity of the flowed energy is no longer guaranteed (the
    functional itself changes with the metric).

    Returns ``(phi_final, trace)``; a step-size underflow is reported as
    ``trace.status == "stalled"``, and a state that can no longer be
    projected or framed (e.g. it stops immersing under ReInduceEachStep) as
    ``"degenerate"``.  Either way the last good state and the partial trace
    are returned.
    """
    grid = phi0.grid
    if metric is None:
        metric = identity_metric(grid)
    phi = phi0.copy()
    frame = _frame_for(phi, cfg, metric)
    dt = cfg.initial_dt(grid)
    trace = FlowTrace()
    k = _ENERGY_ORDER[cfg.kind]

    chain = TensionChain(phi, frame)
    descent = chain.field(k)
    metrics = _trace_metrics(chain)
    sup_descent = float(np.max(descent.norm_field()))
    trace.record(0, metrics, sup_descent, math.nan)

    for it in range(1, cfg.max_iters + 1):
        if sup_descent <= cfg.grad_tol:
            trace.status = "converged"
            return phi, trace
        dt_used = min(dt, stability_cap(descent, frame, cfg.kind))
        try:
            phi_next, accepted, dt_next = flow_step(
                phi, frame, cfg, dt_used, chain=chain
            )
            if accepted:
                phi_next.values = sf.project_point(phi.spec, phi_next.values)
                if cfg.metric_policy is MetricPolicy.REINDUCE_EACH_STEP:
                    frame = _frame_for(phi_next, cfg, metric)
        except StepUnderflow:
            trace.status = "stalled"
            return phi, trace
        except PolyflowError:
            trace.status = "degenerate"
            return phi, trace
        dt = min(dt_next, _DT_CEILING)
        if accepted:
            phi = phi_next
            chain = TensionChain(phi, frame)
            descent = chain.field(k)
            metrics = _trace_metrics(chain)
            sup_descent = float(np.max(descent.norm_field()))
            trace.record(it, metrics, sup_descent, dt_used)
        else:
            trace.record(it, metrics, sup_descent, 0.0)

    trace.status = "converged" if sup_descent <= cfg.grad_tol else "max_iters"
    return phi, trace


@dataclass
class ProbeVerdict:
    """Diagnostics of a terminal flow state against the vanishing theory.

    ``classification`` is "minimal" when the state is triharmonic to
    tolerance and its tension field vanishes to tolerance,
    "nonminimal-candidate" when it is triharmonic but carries tension
    (reported without interpretation), and "inconclusive" otherwise.
    """

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
    triharmonic_tol: float = 1e-6
    minimal_tol: float = 1e-4

    def to_dict(self) -> dict:
        out = asdict(self)
        out["Etilde4"] = out.pop("etilde4")
        out["L4_tension"] = out.pop("l4_tension")
        return out


def theorem_probe(
    phi: MapField,
    trace: FlowTrace,
    frame: FrameField,
    triharmonic_tol: float = 1e-6,
    minimal_tol: float = 1e-4,
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
    report = energy_report(phi, frame, p_list=(4.0,), chain=chain)

    sup_tau = float(np.max(tau_norm))
    sup_tau3 = float(np.max(chain.tau3.norm_field()))
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

    if sup_tau3 <= triharmonic_tol:
        classification = "minimal" if sup_tau <= minimal_tol else "nonminimal-candidate"
    else:
        classification = "inconclusive"

    return ProbeVerdict(
        sup_tau3=sup_tau3,
        etilde4=report.Etilde4,
        l4_tension=report.Lp_tension[4.0],
        sup_tau=sup_tau,
        tau_sq_node_variance=float(np.var(tau_norm**2)),
        sup_grad_laplacian_tau=float(np.sqrt(np.max(np.maximum(grad_lap_sq, 0.0)))),
        sup_laplacian_tau=float(np.max(chain.lap_norm)),
        cmc_coefficient_of_variation=cv,
        classification=classification,
        constancy_diagnostics=constancy,
        caveats=[
            "compact periodic domain: every energy is finite by construction, "
            "so finiteness and completeness hypotheses are modeled, not tested",
            "flow status: " + trace.status,
        ],
        triharmonic_tol=triharmonic_tol,
        minimal_tol=minimal_tol,
    )
