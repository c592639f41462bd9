"""Numerical verification of the variational and pointwise identities.

This module checks, on discrete data, the statements the operator stack is
supposed to satisfy: the first-variation formulas of the three energies,
the variation formula for the tension field, orthogonality of the tension
field along isometric immersions, curvature-tensor symmetry, the Bochner
identity for |tau|^2, the curvature sign inequality for nonpositively
curved targets, the Kato inequality, the cut-off construction and the
resulting Caccioppoli-type inequality.

Failures of the pointwise audits are reported, not raised; the variation
checks return residuals for the caller to judge.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import space_form as sf
from .domain_grid import (
    Differentiation,
    DomainGrid,
    integrate,
    laplace_beltrami,
    whole_number,
)
from .errors import NotTriharmonic, RadiusTooLarge
from .pullback import ISOMETRY_TOL, MapField, TensionChain, vary

__all__ = [
    "AuditCheck",
    "AuditReport",
    "CutoffField",
    "first_variation_residual",
    "tension_variation_residual",
    "pointwise_identity_audit",
    "cutoff",
    "caccioppoli_audit",
    "random_tangent_section",
]

# Random unit tangent quadruples in the curvature-symmetry check.
_N_QUADRUPLES = 1000

# random_tangent_section: highest Fourier mode per axis, and sup-norm.
SECTION_MAX_MODE = 2
SECTION_AMPLITUDE = 0.3


@dataclass
class AuditCheck:
    name: str
    max_residual: float
    nodes_failed: int
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["name"]
        out["pass"] = out.pop("passed")
        return out


@dataclass
class AuditReport:
    checks: dict = field(default_factory=dict)

    @property
    def failing(self) -> list:
        """Names of the checks that neither passed nor were skipped."""
        return [name for name, c in self.checks.items() if not (c.passed or c.skipped)]

    @property
    def passed(self) -> bool:
        return not self.failing

    def to_dict(self) -> dict:
        return {name: c.to_dict() for name, c in self.checks.items()}


@dataclass
class CutoffField:
    """Smooth bump: 1 on the ball of radius r, 0 outside radius 2r."""

    eta: np.ndarray
    center: tuple
    r: float
    distance: np.ndarray = field(repr=False)

    def ball_mask(self) -> np.ndarray:
        return self.distance <= self.r


def scheme_tolerance(grid: DomainGrid) -> float:
    """Baseline residual tolerance of the differentiation backend."""
    h = max(grid.spacings)
    kind = grid.spec.differentiation
    if kind is Differentiation.CENTRAL_FD2:
        return 2.0 * h**2
    if kind is Differentiation.CENTRAL_FD4:
        return 2.0 * h**4
    return 1e-8


def _require_step(t: float):
    if not (math.isfinite(t) and t != 0.0):
        raise ValueError(f"variation step t must be finite and nonzero, got {t}")


def first_variation_residual(chain: TensionChain, V: np.ndarray, k: int,
                             t: float) -> float:
    """Central-difference check of dE_k/dt = -Int <tau_k, V> at the state
    whose tension chain is ``chain``.

    Returns |FD(t) - A| / (1 + |A|) with FD the symmetric quotient of E_k
    along the geodesic variation and A the analytic pairing.  Both varied
    maps take ``chain.frame``, any frame, held fixed along the variation.
    Decays at O(t^2) plus the scheme error, except for families on which E_k
    is polynomial in t (flat targets), where the quotient is exact.
    ``chain.field`` checks that k is 1, 2 or 3.
    """
    phi, frame = chain.phi, chain.frame
    _require_step(t)
    pairing = sf.ambient_form(phi.spec, chain.field(k), V)
    analytic = -integrate(frame, pairing)
    e_plus = TensionChain(vary(phi, V, t), frame).energy(k)
    e_minus = TensionChain(vary(phi, V, -t), frame).energy(k)
    fd = (e_plus - e_minus) / (2.0 * t)
    return abs(fd - analytic) / (1.0 + abs(analytic))


def tension_variation_residual(chain: TensionChain, V: np.ndarray, t: float) -> float:
    """Sup-norm check of d/dt tau(phi_t)|_0 = -Delta V + sum_j R(V, dphi(e_j)) dphi(e_j)
    at the state whose tension chain is ``chain``.

    The time derivative is the projected ambient central difference of the
    tension fields of the two varied maps; the right side is -J(V), which
    ``chain.jacobi`` takes in its closed form -P(LB V) - c |dphi|^2 V.  Both
    varied maps take ``chain.frame``, held fixed along the variation.
    """
    phi, frame = chain.phi, chain.frame
    _require_step(t)
    tau_plus = TensionChain(vary(phi, V, t), frame).tau
    tau_minus = TensionChain(vary(phi, V, -t), frame).tau
    lhs = sf.project_tangent(phi.spec, phi.values, (tau_plus - tau_minus) / (2.0 * t))
    rhs = -chain.jacobi(V)
    return float(np.max(sf.norm(phi.spec, lhs - rhs)))


def _verdict(name, excess, tol, note="") -> AuditCheck:
    """A check that passes when ``excess`` <= ``tol`` at every node; its
    residual is the largest excess, floored at 0."""
    failed = int(np.sum(excess > tol))
    return AuditCheck(name, max(float(np.max(excess)), 0.0), failed, tol, failed == 0,
                      note=note)


def _skipped(name, note) -> AuditCheck:
    return AuditCheck(name, 0.0, 0, 0.0, True, skipped=True, note=note)


def _gradient_sq(grid, frame, f) -> np.ndarray:
    """|grad f|^2 summed component by component from ``frame.along``: the
    same bits as numpy's sum over the stacked frame components e_i(f),
    without its per-node loop or a stacked gradient.  The d_a f are taken on
    ``grid``, not ``frame.grid``: the Kato check passes a CentralFD2 twin of
    the frame's grid here."""
    grad = frame.along([grid.deriv(f, a) for a in range(grid.dims)])
    out = grad[0] ** 2
    for g in grad[1:]:
        out += g**2
    return out


def _kato_check(name, fd2, frame, a_norm, grad_sq) -> AuditCheck:
    """Kato check for a section alpha, given |alpha| and |nabla alpha|^2.

    |alpha| is merely Lipschitz at zeros of alpha: spectral differentiation
    of a kinked scalar rings globally, while the 2nd-order central
    difference quotient stays bounded by the local Lipschitz constant, so
    grad |alpha| is taken on ``fd2``, a CentralFD2 twin of the grid.
    """
    rhs = np.sqrt(np.maximum(grad_sq, 0.0))
    lhs = np.sqrt(_gradient_sq(fd2, frame, a_norm))
    h = max(fd2.spacings)
    tol = 1e-8 + 10.0 * h**2 * float(np.max(rhs, initial=0.0))
    excess = np.where(a_norm > 1e-6, lhs - rhs, -np.inf)
    return _verdict(name, excess, tol, note="nodes with |alpha| <= 1e-6 excluded")


def pointwise_identity_audit(chain: TensionChain, seed: int = 0) -> AuditReport:
    """Run the bundled pointwise checks on the state whose tension chain is
    ``chain`` and report residuals.

    Checks: tension orthogonality (isometric data only), curvature-tensor
    symmetry on random tangent quadruples, the Bochner identity
    <tau, Delta tau> = (1/2) Delta |tau|^2 + |nabla tau|^2, the sign of the
    curvature contraction for c <= 0, and the Kato inequality for tau and
    Delta tau.
    """
    phi, frame = chain.phi, chain.frame
    grid, spec = phi.grid, phi.spec
    base_tol = scheme_tolerance(grid)
    checks = []

    tau, dphi, lap_tau = chain.tau, chain.dphi, chain.lap_tau
    tau_sq, grad_tau_sq = chain.tau_sq, chain.grad_tau_sq

    # (a) along isometric immersions the tension field is normal to the
    # image: sum_j h(nabla_{e_j} tau, dphi(e_j)) = -h(tau, tau), checked
    # where the frame's metric is the pullback metric to ISOMETRY_TOL.
    if chain.isometry_defect <= ISOMETRY_TOL:
        acc = tau_sq.copy()
        for g, d in zip(chain.grad_tau, dphi):
            acc += sf.ambient_form(spec, g, d)
        tol = base_tol * (1.0 + float(np.max(tau_sq)))
        checks.append(_verdict("tension_orthogonality", np.abs(acc), tol))
    else:
        checks.append(_skipped("tension_orthogonality",
                               "needs an induced (isometric) metric"))

    # (b) pair symmetry of the curvature tensor on random unit tangent
    # quadruples (unit scale keeps the roundoff of the exact identity
    # comparable to the 1e-12 tolerance).
    rng = np.random.default_rng(seed)
    flat_pts = phi.values.reshape(-1, spec.ambient_dim)
    idx = rng.integers(0, flat_pts.shape[0], size=_N_QUADRUPLES)
    x = flat_pts[idx]
    vs = []
    for _ in range(4):
        v = sf.project_tangent(spec, x, rng.standard_normal(x.shape))
        scale = np.maximum(sf.norm(spec, v), 1e-12)
        vs.append(v / scale[..., None])
    lhs = sf.ambient_form(spec, sf.curvature_op(spec, vs[2], vs[3], vs[1]), vs[0])
    rhs = sf.ambient_form(spec, sf.curvature_op(spec, vs[0], vs[1], vs[3]), vs[2])
    checks.append(_verdict("curvature_symmetry", np.abs(lhs - rhs),
                           1e-12 * (1.0 + abs(spec.c)),
                           note=f"{_N_QUADRUPLES} random tangent quadruples"))

    # (c) Bochner identity for the scalar |tau|^2: with the positive
    # Laplacian, <tau, Delta tau> - Delta |tau|^2 / 2 = |nabla tau|^2.
    pairing = sf.ambient_form(spec, tau, lap_tau)
    bochner = pairing + 0.5 * laplace_beltrami(frame, tau_sq)[1] - grad_tau_sq
    tol = base_tol * (1.0 + float(np.max(np.abs(pairing))) + float(np.max(grad_tau_sq)))
    checks.append(_verdict("bochner_identity", np.abs(bochner), tol))

    # (d) for c <= 0 the curvature contraction against Delta tau has a sign:
    # c * (sum_i <Delta tau, dphi(e_i)>^2 - |Delta tau|^2 |dphi|^2) >= 0.
    if spec.c <= 0.0:
        lap_dphi_sq = chain.lap_sq * chain.dphi_sq
        proj_sq = np.zeros(grid.shape)
        for d in dphi:
            proj_sq += sf.ambient_form(spec, lap_tau, d) ** 2
        tol = 1e-10 * (1.0 + float(np.max(lap_dphi_sq)))
        checks.append(_verdict("curvature_sign", -spec.c * (proj_sq - lap_dphi_sq), tol))
    else:
        checks.append(_skipped("curvature_sign", "sign statement applies to c <= 0 only"))

    # (e) Kato inequality |grad |alpha|| <= |nabla alpha| where alpha != 0.
    fd2 = DomainGrid(replace(grid.spec, differentiation=Differentiation.CENTRAL_FD2))
    checks.append(_kato_check("kato_tension", fd2, frame, chain.tau_norm, grad_tau_sq))
    checks.append(_kato_check("kato_tension_laplacian", fd2, frame, chain.lap_norm,
                              chain.grad_lap_tau_sq))
    return AuditReport({c.name: c for c in checks})


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (6.0 * u**2 - 15.0 * u + 10.0)


def _periodic_distance(grid: DomainGrid, center: tuple) -> np.ndarray:
    """Distance to the node ``center``, one index in [0, n) per axis, in the
    flat periodic (torus) geometry."""
    d2 = np.zeros(grid.shape)
    for a in range(grid.dims):
        delta = np.abs(grid.coords[a] - center[a] * grid.spacings[a])
        delta = np.minimum(delta, grid.spec.lengths[a] - delta)
        d2 = d2 + delta**2
    return np.sqrt(d2)


def cutoff(grid: DomainGrid, center, r: float) -> CutoffField:
    """Quintic-smoothstep bump around a node.

    eta = 1 on the ball of radius r, 0 outside radius 2r, and the gradient
    bound max |grad eta| <= 15/(8r) < 2/r holds with margin.  2r >= L/2,
    or a NaN r, is a RadiusTooLarge; r <= 0, or a ``center`` that is not one
    whole-number node index in [0, n) per axis, is a ValueError.
    """
    if not 2.0 * r < min(grid.spec.lengths) / 2.0:
        raise RadiusTooLarge(
            f"need 2r < {min(grid.spec.lengths) / 2.0:.6g}, got r = {r:.6g}"
        )
    if not r > 0.0:
        raise ValueError(f"cut-off radius must be positive, got {r}")
    center = tuple(whole_number(c, "center") for c in np.atleast_1d(center))
    if len(center) != grid.dims or not all(0 <= c < n for c, n in zip(center, grid.shape)):
        raise ValueError(f"center must be one node index in [0, n) per axis of a "
                         f"{grid.shape} grid, got {center}")
    d = _periodic_distance(grid, center)
    eta = _smoothstep((2.0 * r - d) / r)
    return CutoffField(eta=eta, center=center, r=float(r), distance=d)


def caccioppoli_audit(chain: TensionChain, eta: CutoffField, eps: float) -> float:
    """Margin of the localized energy inequality for the triharmonic state
    whose tension chain is ``chain``.

    For a map with vanishing tritension field into a target with c <= 0,

        (1/eps) Int |Delta tau|^2 |grad eta|^2 - c Int |tau|^4 |grad eta|^2
        >= (1-eps) Int_{B_r} |nabla Delta tau|^2
           - (c/4) Int_{B_r} |grad |tau|^2|^2
           - c Int_{B_r} |tau|^2 |nabla tau|^2.

    Returns LHS - RHS; nonnegative up to roundoff when the preconditions
    hold.  Raises :class:`NotTriharmonic` if sup |tau3| > 1e-5 or c > 0.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    frame, spec, grid = chain.frame, chain.phi.spec, chain.phi.grid
    if spec.c > 0.0:
        raise NotTriharmonic("inequality requires nonpositive curvature")
    tau3_sup = chain.sup_norm(3)
    if tau3_sup > 1e-5:
        raise NotTriharmonic(f"sup |tau3| = {tau3_sup:.3e} exceeds 1e-5")

    tau_norm_sq, lap_sq = chain.tau_sq, chain.lap_sq
    grad_lap_sq = chain.grad_lap_tau_sq
    grad_tau_sq = chain.grad_tau_sq

    grad_eta_sq = _gradient_sq(grid, frame, eta.eta)
    grad_tau_norm_sq = _gradient_sq(grid, frame, tau_norm_sq)
    ball = eta.ball_mask().astype(float)

    c = spec.c
    lhs = (1.0 / eps) * integrate(frame, lap_sq * grad_eta_sq) - c * integrate(
        frame, tau_norm_sq**2 * grad_eta_sq
    )
    rhs = (
        (1.0 - eps) * integrate(frame, grad_lap_sq * ball)
        - 0.25 * c * integrate(frame, grad_tau_norm_sq * ball)
        - c * integrate(frame, tau_norm_sq * grad_tau_sq * ball)
    )
    return lhs - rhs


def random_tangent_section(phi: MapField, seed: int) -> np.ndarray:
    """Seeded band-limited random section along ``phi``.

    Each ambient component is a small trigonometric polynomial (modes up to
    ``SECTION_MAX_MODE`` per axis); the field is projected to the tangent
    spaces and rescaled to sup-norm ``SECTION_AMPLITUDE``.
    """
    grid, spec = phi.grid, phi.spec
    rng = np.random.default_rng(seed)
    angles = grid.angles
    values = np.moveaxis(np.zeros((spec.ambient_dim,) + grid.shape), 0, -1)
    for comp in range(spec.ambient_dim):
        f = np.zeros(grid.shape)
        for _ in range(4):
            modes = rng.integers(-SECTION_MAX_MODE, SECTION_MAX_MODE + 1,
                                 size=grid.dims)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            arg = np.full(grid.shape, phase)
            for a in range(grid.dims):
                arg = arg + modes[a] * angles[a]
            f = f + rng.standard_normal() * np.cos(arg)
        values[..., comp] = f
    values = sf.project_tangent(spec, phi.values, values)
    sup = float(np.max(sf.norm(spec, values)))
    if sup > 0.0:
        values *= SECTION_AMPLITUDE / sup
    return values
