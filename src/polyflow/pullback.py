"""Operator calculus on vector fields along a map.

Everything acting on sections of the pullback bundle lives on one object,
:class:`TensionChain`: the differential, the induced connection (ambient
derivative followed by the tangent projection), the nonnegative connection
Laplacian, the Jacobi operator, and the tension / bitension / tritension
fields.  On a space form N(c) the Jacobi operator is taken in closed form,
J(V) = -P(LB V) - c |dphi|^2 V (P the tangent projection, LB the domain's
Laplace-Beltrami operator), so tau2 and tau3 form neither Delta^2 tau nor
the curvature contraction.
:func:`tritension_space_form` is the isometric-immersion formula for tau3,
kept apart as an independent check of the chain.  A section along a map
is a plain ``grid.shape + (ambient_dim,)`` array in ambient coordinates,
projected onto the target's tangent spaces, so tangency is a checkable
invariant instead of a representation assumption.  Its ambient components
are the outermost memory axis (:func:`components_outermost`), so each one
is a C-ordered grid plane: the map's values are stored so, and every
section the chain forms from them keeps that layout, while the scalar
fields (|tau|^2 and the like) stay C-ordered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import space_form as sf
from .domain_grid import (DomainGrid, FrameField, SPECTRAL_REL_CUTOFF,
                          components_outermost, integrate, laplace_beltrami)
from .errors import NotIsometric

__all__ = [
    "MapField",
    "TensionChain",
    "tension",
    "tritension_space_form",
    "vary",
]

ISOMETRY_TOL = 1e-6


@dataclass(frozen=True)
class MapField:
    """Discrete map into the target: one ambient point per grid node.

    ``values`` is read-only, stored components outermost
    (:func:`components_outermost`), so the cached ``coordinate_derivs``
    cannot go stale through it; a changed map is a new MapField.  An input
    already in that layout is held as a view and stays writable: do not
    change it after.  Any other input, a C-ordered array among them, is
    copied.
    """

    values: np.ndarray  # grid.shape + (ambient_dim,)
    grid: DomainGrid = field(repr=False)
    spec: sf.SpaceFormSpec

    def __post_init__(self):
        values = components_outermost(np.asarray(self.values, dtype=float)).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def coordinate_pairs(self) -> tuple:
        """``[d_a phi, d_a^2 phi]`` per node axis a, at the map's spectral floor:
        one ``deriv12`` each, taken once per map and read by the induced
        metric (``coordinate_derivs``, the d_a phi) and every tension chain."""
        return tuple(self.grid.deriv12(self.values, a, floor=self.spectral_floor)
                     for a in range(self.grid.dims))

    @cached_property
    def coordinate_derivs(self) -> tuple:
        return tuple(pair[0] for pair in self.coordinate_pairs)

    @cached_property
    def pullback_metric(self) -> np.ndarray:
        """h(d_a phi, d_b phi) per node, ``grid.shape + (dims, dims)``, read
        only: formed once per map from ``coordinate_derivs``, unguarded;
        :func:`induced_metric` checks that it immerses."""
        dphi, dims = self.coordinate_derivs, self.grid.dims
        g = np.empty(self.grid.shape + (dims, dims))
        for a in range(dims):
            for b in range(a, dims):
                gab = sf.ambient_form(self.spec, dphi[a], dphi[b])
                g[..., a, b] = g[..., b, a] = gab
        g.flags.writeable = False
        return g

    def constraint_residual(self) -> float:
        return float(np.max(sf.constraint_residual(self.spec, self.values)))

    @cached_property
    def spectral_floor(self) -> float:
        """Absolute Fourier-coefficient floor for derivatives of this map.

        Fields derived from the map inherit its roundoff scale; coefficients
        below this floor are indistinguishable from noise and would be
        amplified k^6-fold by the tritension chain.
        """
        return SPECTRAL_REL_CUTOFF * max(1.0, float(np.abs(self.values).max()))


def vary(phi: MapField, V: np.ndarray, t: float) -> MapField:
    """Geodesic variation phi_t(x) = exp_{phi(x)}(t V(x)); phi itself at t = 0."""
    if t == 0.0:
        return phi
    return MapField(sf.exp_map(phi.spec, phi.values, t * V), phi.grid, phi.spec)


class TensionChain:
    """The tension chain of one state ``(phi, frame)``, each field computed once.

    ``dphi``, ``tau``, ``grad_tau`` (nabla_{e_i} tau), ``lap_tau``,
    ``grad_lap_tau``, ``tau2`` and ``tau3`` are evaluated on first access and
    then shared.  As nabla_e nabla_e V = P(e(e(V))) + c h(dphi(e), V) dphi(e)
    for V tangent along phi, P the tangent projection, tau = P(LB phi),
    -Delta V = P(LB V) + c sum_i h(dphi(e_i), V) dphi(e_i) and
    nabla_{e_i} V = P(sum_a e_i^a d_a V), LB = G^{ab} d_a d_b + B^b d_b
    (:func:`laplace_beltrami`): one ``deriv12`` of V per axis gives its nabla
    and Delta.  In a space form sum_i R(V, dphi(e_i)) dphi(e_i) =
    c (|dphi|^2 V - sum_i h(V, dphi(e_i)) dphi(e_i)), whose second term
    cancels the one of Delta V, so the Jacobi operator is
    J(V) = -P(LB V) - c |dphi|^2 V: ``tau2`` is J of tau from the P(LB tau)
    that ``lap_tau`` takes, and ``tau3`` is J of Delta tau from P(LB Delta tau),
    with no Delta^2 tau and no curvature contraction.  Fields and operators
    take the same route, so sharing never changes a result.  ``nabla``,
    ``laplacian`` and ``jacobi`` apply to any section along phi.  The chain
    also owns the state's scalars: energies, Etilde4, L^p and sup norms, and
    the pointwise |tau|^2 and |Delta tau|^2.  Build one chain per state and
    drop it with the state.
    """

    def __init__(self, phi: MapField, frame: FrameField):
        self.phi = phi
        self.frame = frame
        self._floor = phi.spectral_floor
        self._scalars = {}  # energies, L^p and sup norms, per (name, order)

    def nabla(self, V: np.ndarray) -> list:
        """Induced connection nabla_{e_i} V for each frame direction e_i: the
        ambient derivative of V along e_i, projected onto the target's tangent
        space."""
        phi = self.phi
        return self._along_frame([phi.grid.deriv(V, a, floor=self._floor)
                                  for a in range(phi.grid.dims)])

    def _along_frame(self, derivs) -> list:
        """P(sum_a e_i^a d_a V) per i (:meth:`FrameField.along`), from the d_a V
        by axis; each sum is dropped once projected."""
        phi, sums = self.phi, self.frame.along(derivs)
        return [sf.project_tangent(phi.spec, phi.values, sums.pop(0))
                for _ in range(len(sums))]

    def _projected_lb(self, V: np.ndarray, pairs=None) -> list:
        """``[P(G^{ab} d_a d_b V + B^b d_b V), [d_a V]]``, from ``pairs``
        ``[d_a V, d_a^2 V]`` per axis when given."""
        phi = self.phi
        derivs, lb = laplace_beltrami(self.frame, V, self._floor, pairs)
        return [sf.project_tangent(phi.spec, phi.values, lb), derivs]

    def _pairings(self, V: np.ndarray) -> list:
        """c h(dphi(e_i), V) per i; none on a flat target."""
        spec = self.phi.spec
        if spec.c == 0.0:
            return []
        return [spec.c * sf.ambient_form(spec, d, V) for d in self.dphi]

    def _rough(self, plb: np.ndarray, pairings: list) -> np.ndarray:
        """Delta V = -(P(LB V) + c sum_i h(dphi(e_i), V) dphi(e_i)), in place
        on ``plb``."""
        for d, ch in zip(self.dphi, pairings):
            plb += ch[..., None] * d
        return np.negative(plb, out=plb)

    def _jacobi(self, plb: np.ndarray, V: np.ndarray, out=None) -> np.ndarray:
        """J(V) = -P(LB V) - c |dphi|^2 V, into ``out`` (a new array if None)."""
        out = np.negative(plb, out=out)
        if self.phi.spec.c != 0.0:
            out -= (self.phi.spec.c * self.dphi_sq)[..., None] * V
        return out

    def laplacian(self, V: np.ndarray) -> np.ndarray:
        """Nonnegative connection Laplacian of a section along phi."""
        return self._rough(self._projected_lb(V)[0], self._pairings(V))

    def jacobi(self, V: np.ndarray) -> np.ndarray:
        """Jacobi operator J(V) = Delta V - sum_i R(V, dphi(e_i)) dphi(e_i), in
        its space-form closed form -P(LB V) - c |dphi|^2 V."""
        plb = self._projected_lb(V)[0]
        return self._jacobi(plb, V, out=plb)

    def _sq_sum(self, sections: list) -> np.ndarray:
        """Pointwise sum_i |S_i|^2, e.g. |dphi|^2 or |nabla V|^2."""
        out = np.zeros(self.phi.grid.shape)
        for s in sections:
            out += sf.ambient_form(self.phi.spec, s, s)
        return out

    @cached_property
    def dphi(self) -> list:
        return self._along_frame(self.phi.coordinate_derivs)

    @cached_property
    def tau(self) -> np.ndarray:
        phi = self.phi
        return self._projected_lb(phi.values, phi.coordinate_pairs)[0]

    # [P(LB V), [d_a V]] of tau and Delta tau.  P(LB tau) is kept, as Delta tau
    # and J(tau) both start from it; tau3 is formed in place on P(LB Delta tau)
    # and drops the c h(dphi(e_i), tau) it shares with Delta tau.  nabla tau
    # and nabla Delta tau project the first derivatives on first use (the flow
    # never reads nabla Delta tau), and then drop them

    @cached_property
    def _tau_lb(self) -> list:
        return self._projected_lb(self.tau)

    @cached_property
    def _lap_tau_lb(self) -> list:
        return self._projected_lb(self.lap_tau)

    @cached_property
    def _tau_pairings(self) -> list:
        return self._pairings(self.tau)

    @cached_property
    def lap_tau(self) -> np.ndarray:
        return self._rough(self._tau_lb[0].copy(order="K"), self._tau_pairings)

    @cached_property
    def grad_tau(self) -> list:
        return self._along_frame(self._tau_lb.pop())

    @cached_property
    def grad_lap_tau(self) -> list:
        return self._along_frame(self._lap_tau_lb.pop())

    @cached_property
    def tau2(self) -> np.ndarray:
        """Bitension J(tau)."""
        return self._jacobi(self._tau_lb[0], self.tau)

    @cached_property
    def tau3(self) -> np.ndarray:
        """Tritension J(Delta tau) - sum_i R(nabla_{e_i} tau, tau) dphi(e_i),
        -P(LB Delta tau) - c |dphi|^2 Delta tau - c sum_i (h(tau, dphi(e_i))
        nabla_{e_i} tau - h(nabla_{e_i} tau, dphi(e_i)) tau), with the
        c h(dphi(e_i), tau) that Delta tau took."""
        spec, tau = self.phi.spec, self.tau
        plb = self._lap_tau_lb.pop(0)
        out = self._jacobi(plb, self.lap_tau, out=plb)
        for g, d, ch in zip(self.grad_tau, self.dphi, self._tau_pairings):
            h_gd = sf.ambient_form(spec, g, d)
            out -= ch[..., None] * g
            out += (spec.c * h_gd)[..., None] * tau
        del self._tau_pairings
        return out

    @cached_property
    def tau_sq(self) -> np.ndarray:
        return sf.ambient_form(self.phi.spec, self.tau, self.tau)

    @cached_property
    def lap_sq(self) -> np.ndarray:
        return sf.ambient_form(self.phi.spec, self.lap_tau, self.lap_tau)

    @cached_property
    def tau_norm(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.tau_sq, 0.0))

    @cached_property
    def lap_norm(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.lap_sq, 0.0))

    @cached_property
    def dphi_sq(self) -> np.ndarray:
        return self._sq_sum(self.dphi)

    @cached_property
    def grad_tau_sq(self) -> np.ndarray:
        return self._sq_sum(self.grad_tau)

    @cached_property
    def grad_lap_tau_sq(self) -> np.ndarray:
        return self._sq_sum(self.grad_lap_tau)

    def field(self, k: int) -> np.ndarray:
        """Tension field of order k in {1, 2, 3}: tau, tau2 or tau3."""
        if k not in (1, 2, 3):
            raise ValueError(f"tension order must be 1, 2 or 3, got {k}")
        return getattr(self, ("tau", "tau2", "tau3")[k - 1])

    def energy(self, k: int) -> float:
        """k-th energy of the ladder: (1/2) Int |dphi|^2, |tau|^2 or |nabla tau|^2."""
        if ("E", k) not in self._scalars:
            if k not in (1, 2, 3):
                raise ValueError(f"energy order must be 1, 2 or 3, got {k}")
            density = getattr(self, ("dphi_sq", "tau_sq", "grad_tau_sq")[k - 1])
            self._scalars["E", k] = 0.5 * integrate(self.frame, density)
        return self._scalars["E", k]

    @cached_property
    def isometry_defect(self) -> float:
        """max |h(d_a phi, d_b phi) - g_ab|, g the frame's metric; unguarded."""
        return float(np.abs(self.phi.pullback_metric - self.frame.metric.g).max())

    @cached_property
    def etilde4(self) -> float:
        """Iterated-Laplacian part of the fourth energy, (1/2) Int |Delta tau|^2."""
        return 0.5 * integrate(self.frame, self.lap_sq)

    def tension_lp(self, p: float) -> float:
        """Int |tau|^p, the p-th power of the L^p norm of the tension field."""
        if ("Lp", p) not in self._scalars:
            self._scalars["Lp", p] = integrate(self.frame, self.tau_norm ** float(p))
        return self._scalars["Lp", p]

    def sup_norm(self, k: int) -> float:
        """sup |tau|, |tau2| or |tau3| over the grid, sqrt(max(0, max h(V, V))):
        sqrt is monotone and correctly rounded, so this is the max of
        ``sf.norm(spec, field(k))``."""
        if ("sup", k) not in self._scalars:
            V = self.field(k)
            sq = self.tau_sq if k == 1 else sf.ambient_form(self.phi.spec, V, V)
            self._scalars["sup", k] = float(np.sqrt(np.maximum(sq.max(), 0.0)))
        return self._scalars["sup", k]


def tension(phi: MapField, frame: FrameField) -> np.ndarray:
    """Trace of the second fundamental form.

    tau = sum_i { nabla_{e_i}(dphi(e_i)) - dphi(nabla_{e_i} e_i) }.
    Vanishes exactly on geodesics / totally geodesic maps.  Short for
    ``TensionChain(phi, frame).tau``; perfbench's per-layer report reads its
    calls under this name.
    """
    return TensionChain(phi, frame).tau


def tritension_space_form(chain: TensionChain) -> np.ndarray:
    """Tritension field of the state whose tension chain is ``chain``,
    specialized to isometric immersions:

    tau3 = J(Delta tau) - c h(tau, tau) tau,

    with J(Delta tau) = Delta^2 tau - sum_i R(Delta tau, dphi(e_i)) dphi(e_i)
    from ``chain.jacobi``'s closed form -P(LB Delta tau) - c |dphi|^2 Delta tau,
    on a transform of Delta tau of its own (the chain's tau3 is formed in
    place on its P(LB Delta tau)); Delta^2 tau is not formed.

    Requires the domain metric to be the pullback metric (mode Induced, or
    a prescribed metric matching it to 1e-6); the simplification relies on
    the tension field being normal to the image, which fails quantitatively
    for non-isometric maps.
    """
    phi = chain.phi
    if chain.isometry_defect > ISOMETRY_TOL:  # 0.0 on the induced metric
        raise NotIsometric("prescribed metric deviates from the pullback "
                           f"metric by {chain.isometry_defect:.3e}")
    out = chain.jacobi(chain.lap_tau)
    if phi.spec.c != 0.0:
        out -= (phi.spec.c * chain.tau_sq)[..., None] * chain.tau
    return out
