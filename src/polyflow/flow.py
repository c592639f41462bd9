"""Gradient flows for the energy ladder, with Armijo backtracking.

The descent direction for each flow is the corresponding tension-type
field (tension, bitension, tritension) on the flat prescribed frame.  An
Armijo trial (:func:`flow_step`) takes a linearly implicit Euler step for
the leading operator: the descent's coefficients in an orthonormal tangent
frame (closed form on the hyperboloid) are divided by ``1 + dt |q|^(2k)``
in spectrum (:func:`_implicit_step`).

The first-variation formula pairs the step with the descent field, and the
step pairs positively with it for every dt, so an accepted Armijo step can
never increase the energy being flowed.  Steps move along target geodesics
via the exponential map and the state is re-projected onto the model every
step.  :func:`run_flow` owns Armijo's step memory ``dt``.
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
    identity_metric,
    induced_metric,
    integrate,
    orthonormal_frame,
    real_number,
    whole_number,
)
from .errors import DegenerateImmersion, PolyflowError, StepUnderflow
from .pullback import MapField, TensionChain, vary

__all__ = [
    "FlowKind",
    "MetricPolicy",
    "FlowConfig",
    "FlowTrace",
    "ProbeVerdict",
    "Trial",
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
    """The domain metric a flow runs on: the flat prescribed one."""

    FIXED_PRESCRIBED = "FixedPrescribed"


# Order k of the flowed energy E_k.  Its descent operator has differential
# order 2k, so a mode of wavenumber q is explicitly stable only for dt below
# ~2/q^(2k), and the implicit step damps it by 1 / (1 + dt q^(2k)); the
# default first step is 0.1 h^(k+1).
_ENERGY_ORDER = {FlowKind.HARMONIC: 1, FlowKind.BIHARMONIC: 2, FlowKind.TRIHARMONIC: 3}

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
        if self.dt0 is not None:
            self.dt0 = real_number(self.dt0, "dt0")
        self.grad_tol = real_number(self.grad_tol, "grad_tol")
        self.armijo_c = real_number(self.armijo_c, "armijo_c")
        self.shrink = real_number(self.shrink, "shrink")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if self.dt0 is not None and not 0.0 < self.dt0 < math.inf:
            raise ValueError("dt0 must be positive and finite")
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

    Rejected trials repeat the current state with dt = 0."""

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
    )

    def column(self, name: str) -> list:
        i = self.COLUMNS.index(name)
        return [row[i] for row in self.rows]

    def accepted_series(self, name: str) -> list:
        """The column at the initial state (dt NaN) and each accepted step."""
        return [v for v, dt in zip(self.column(name), self.column("dt")) if dt != 0.0]


class Trial(NamedTuple):
    """One Armijo trial: whether it was accepted and the tension chain of the
    state it leaves (the candidate if accepted, else the state it started
    from)."""

    accepted: bool
    chain: TensionChain


def flow_step(chain: TensionChain, cfg: FlowConfig, *, dt: float) -> Trial:
    """One Armijo trial from the state whose tension chain is ``chain``, at
    step size ``dt``, the caller's step memory.

    The chain supplies the state ``(phi, frame)``, the descent field and the
    current energy.  The step is the implicit one (:func:`_implicit_step`)
    and ``dt`` is tried as given.  The candidate is exp_phi(dt * step), which
    ends on the model; it is accepted iff the flowed energy drops by at
    least armijo_c * dt * Int <descent, step>, up to a relative
    float-resolution slack (1e-13 |E|, well inside the 1e-12 monotonicity
    contract) so the search cannot stall on energy differences below
    evaluation roundoff.  On rejection ``chain`` is returned unchanged.
    Choosing the next ``dt`` is :func:`run_flow`'s.
    """
    phi, frame = chain.phi, chain.frame
    k = _ENERGY_ORDER[cfg.kind]
    if dt < DT_FLOOR:
        raise StepUnderflow(f"step size underflow: dt = {dt:.3e}")
    if chain.sup_norm(k) == 0.0:
        return Trial(True, chain)
    descent = chain.field(k)
    step = _implicit_step(phi, descent, k, dt)
    e_now = chain.energy(k)
    decrease = integrate(phi.grid, frame, sf.ambient_form(phi.spec, descent, step))
    trial = TensionChain(vary(phi, step, dt), frame)
    if trial.energy(k) <= e_now - cfg.armijo_c * dt * decrease + 1e-13 * abs(e_now):
        return Trial(True, trial)
    return Trial(False, chain)


def _implicit_step(phi: MapField, descent: np.ndarray, k: int, dt: float) -> np.ndarray:
    """Linearly implicit Euler step of the leading operator on the flat
    frame, whose volume element is 1: the coefficients of ``descent``, a
    section along ``phi``, in an orthonormal tangent frame (its ambient
    components on flat and sphere targets, :func:`_boost_coefficients` on
    the hyperboloid) have their spectra divided by ``1 + dt |q|^(2k)``, q
    the true wavenumber (Nyquist included), and the step is rebuilt from
    them.  The pairing Int <descent, step> = sum_q |c_q|^2 / (1 + dt |q|^(2k))
    is positive for every dt, so the step needs no cap and no band limit."""
    spec, grid, x, coeffs = phi.spec, phi.grid, phi.values, descent
    boost = spec.model is sf.Model.HYPERBOLOID
    if boost:
        r = 1.0 / math.sqrt(-spec.c)
        a, coeffs = _boost_coefficients(x, coeffs, r)
    # numpy's rfftn and irfftn by their parts: rfft over the last node axis
    last = grid.dims - 1
    spectrum = np.fft.rfft(coeffs, axis=last)
    for axis in reversed(range(last)):
        spectrum = np.fft.fft(spectrum, axis=axis)
    spectrum /= 1.0 + dt * grid.q_power(k)
    for axis in range(last):
        spectrum = np.fft.ifft(spectrum, axis=axis)
    coeffs = np.fft.irfft(spectrum, n=grid.shape[last], axis=last)
    if not boost:
        return sf.project_tangent(spec, x, coeffs)
    # sum_i c_i E_i = (s (1 + x0/r), c + (s/r) x[1:]): tangent by algebra
    s = sum(a[..., i] * coeffs[..., i] for i in range(spec.n))
    return np.concatenate([(s * (1.0 + x[..., 0] / r))[..., None],
                           coeffs + (s / r)[..., None] * x[..., 1:]], axis=-1)


def _boost_coefficients(x: np.ndarray, v: np.ndarray, r: float) -> tuple:
    """``(a, v[1:] - a v0)``, ``a = x[1:] / (r + x0)``: a tangent ``v``'s
    coefficients in the boost frame ``E_i = e_i + a_i (e_0 + x/r)`` at ``x``
    (r = 1/sqrt(-c)), since <v, e_0 + x/r> = -v0; the frame is never formed."""
    a = x[..., 1:] / (r + x[..., :1])
    return a, v[..., 1:] - a * v[..., :1]


def _trace_metrics(chain: TensionChain) -> tuple:
    """A state's trace columns E to sup_tau."""
    return (chain.energy(1), chain.energy(2), chain.energy(3), chain.etilde4,
            chain.tension_lp(4.0), chain.sup_norm(1))


def run_flow(phi0: MapField, cfg: FlowConfig):
    """Iterate Armijo steps until sup |descent| <= grad_tol or max_iters.

    Every state (``phi0`` at step 0, then each accepted trial, which
    ``exp_map`` projected onto the model) lies on the one flat frame built
    at step 0, so the chain the Armijo trial built for a candidate is the
    next state's chain; each state's trace row is recorded from its chain.

    Each trial is one :func:`flow_step` at Armijo's step memory ``dt``,
    which only this loop changes: an accepted trial sets it to ``dt / shrink``
    and a rejected one to ``dt * shrink``, both at most ``_DT_CEILING``.

    Returns ``(state, trace)``, ``state`` the tension chain of the last
    good state; it is ``None`` exactly when no trace row was written.  A
    step-size underflow is reported as ``trace.status == "stalled"``, a
    trial whose candidate cannot be projected onto the model as
    ``"degenerate"``, and a state with a non-finite trace row as
    ``"nonfinite"``; either way the last good state and the partial trace
    are returned.
    """
    k = _ENERGY_ORDER[cfg.kind]
    dt = cfg.initial_dt(phi0.grid)
    trace = FlowTrace()
    frame = orthonormal_frame(phi0.grid, identity_metric(phi0.grid))
    state, chain, dt_used = None, TensionChain(phi0, frame), math.nan

    for it in range(cfg.max_iters + 1):
        try:
            if it > 0:
                accepted, chain = flow_step(state, cfg, dt=dt)
                if not accepted:
                    dt = min(dt * cfg.shrink, _DT_CEILING)
                    trace.rows.append((it, *row, 0.0))
                    continue
                dt_used, dt = dt, min(dt / cfg.shrink, _DT_CEILING)
            sup_descent = chain.sup_norm(k)
            row = (*_trace_metrics(chain), sup_descent)
        except StepUnderflow:
            trace.status = "stalled"
            return state, trace
        except PolyflowError:
            trace.status = "degenerate"
            return state, trace
        if not all(map(math.isfinite, row)):
            trace.status = "nonfinite"
            return state, trace
        state = chain
        trace.rows.append((it, *row, dt_used))
        if sup_descent <= cfg.grad_tol:
            trace.status = "converged"
            return state, trace

    trace.status = "max_iters"
    return state, trace


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
    ``isometry_defect`` = max |h(d_a phi, d_b phi) - g_ab|, g the frame's.
    """

    E: float
    immersed: bool
    isometry_defect: float
    sup_tau3: float
    Etilde4: float
    L4_tension: float
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
        return asdict(self)


def theorem_probe(chain: TensionChain, status: str) -> ProbeVerdict:
    """Measure a terminal state, given by its tension chain and its flow
    status, against the vanishing predictions.

    Reports the triharmonicity defect sup |tau3|, the finiteness surrogates
    Etilde4 and Int |tau|^4 (always finite on a compact grid), the
    minimality measures sup |tau| and the node variance of |tau|^2, the
    parallelism measure sup |nabla Delta tau|, and a constant-mean-curvature
    diagnostic (coefficient of variation of |tau|; measured, never
    enforced).
    """
    phi, frame = chain.phi, chain.frame
    tau_norm = chain.tau_norm
    grad_lap_sq = chain.grad_lap_tau_sq

    sup_tau = chain.sup_norm(1)
    sup_tau3 = chain.sup_norm(3)
    mean_norm = float(tau_norm.mean())
    cv = float(tau_norm.std() / mean_norm) if mean_norm > 1e-12 else 0.0

    # diagnostic only: when Int |alpha|^2 |nabla alpha|^2 is tiny, the
    # smooth theory forces |alpha| constant; report the observed variance
    # of |alpha| rather than asserting a smooth-section statement on
    # discrete data.
    constancy = {}
    for name, a_sq, a_norm, grad_sq in (
        ("tension", chain.tau_sq, tau_norm, chain.grad_tau_sq),
        ("laplacian_tau", chain.lap_sq, chain.lap_norm, grad_lap_sq),
    ):
        weighted = integrate(phi.grid, frame, a_sq * grad_sq)
        constancy[name] = {
            "weighted_gradient_integral": weighted,
            "norm_variance": float(a_norm.var()),
            "constancy_expected": bool(weighted <= 1e-10),
        }

    if sup_tau3 <= _TRIHARMONIC_TOL:
        classification = "minimal" if sup_tau <= _MINIMAL_TOL else "nonminimal-candidate"
    else:
        classification = "inconclusive"

    caveats = [
        "compact periodic domain: every energy is finite by construction, "
        "so finiteness and completeness hypotheses are modeled, not tested",
        "flow status: " + status,
    ]
    energy = chain.energy(1)
    isometry_defect = float(np.abs(phi.pullback_metric - frame.metric.g).max())
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
        isometry_defect=isometry_defect,
        sup_tau3=sup_tau3,
        Etilde4=chain.etilde4,
        L4_tension=chain.tension_lp(4.0),
        sup_tau=sup_tau,
        tau_sq_node_variance=float(chain.tau_sq.var()),
        sup_grad_laplacian_tau=float(np.sqrt(np.maximum(grad_lap_sq, 0.0).max())),
        sup_laplacian_tau=float(chain.lap_norm.max()),
        cmc_coefficient_of_variation=cv,
        classification=classification,
        constancy_diagnostics=constancy,
        caveats=caveats,
    )
