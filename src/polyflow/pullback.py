"""Operator calculus on vector fields along a map.

Everything acting on sections of the pullback bundle lives on one object,
:class:`TensionChain`: the differential, the induced connection (ambient
derivative followed by the tangent projection), the nonnegative connection
Laplacian, the curvature contraction, the Jacobi operator, and the tension /
bitension / tritension fields.  :func:`tritension_space_form` is the
isometric-immersion formula for tau3, kept apart as an independent check of
the chain.  Sections are stored in ambient coordinates and re-projected after
every derivative, so tangency is a checkable invariant instead of a
representation assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import space_form as sf
from .domain_grid import (DomainGrid, FrameField, MetricMode, SPECTRAL_REL_CUTOFF,
                          induced_metric, integrate)
from .errors import NotIsometric

__all__ = [
    "MapField",
    "Section",
    "TensionChain",
    "tension",
    "tritension_space_form",
]

ISOMETRY_TOL = 1e-6


@dataclass(frozen=True)
class MapField:
    """Discrete map into the target: one ambient point per grid node.

    ``values`` is a read-only view set at construction, so the cached
    ``coordinate_derivs`` cannot go stale through it; a changed map is a new
    MapField.  The array passed in stays writable: do not change it after.
    """

    values: np.ndarray  # grid.shape + (ambient_dim,)
    grid: DomainGrid = field(repr=False, default=None)
    spec: sf.SpaceFormSpec = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def coordinate_derivs(self) -> tuple:
        """d_a phi along each node axis a, at the map's spectral floor; taken
        once per map and read by the induced metric and every tension chain."""
        floor = self.spectral_floor
        return tuple(self.grid.deriv(self.values, a, floor=floor)
                     for a in range(self.grid.dims))

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


@dataclass
class Section:
    """Vector field along a map, tangent to the target at each node."""

    values: np.ndarray
    base: MapField = field(repr=False, default=None)

    def tangency_residual(self) -> float:
        spec = self.base.spec
        if spec.model is sf.Model.FLAT:
            return 0.0
        return float(
            np.max(np.abs(sf.ambient_form(spec, self.base.values, self.values)))
        )

    def norm_field(self) -> np.ndarray:
        """Pointwise norm |V| over the grid."""
        return sf.norm(self.base.spec, self.base.values, self.values)


def _along(phi: MapField, derivs, coeffs: np.ndarray, axes: tuple) -> np.ndarray:
    """Projected sum_a coeffs[..., a] * d_a(V) over ``axes``, given the d_a(V)
    indexed by axis.  The sum is C-ordered whatever the layout of the d_a(V),
    which may be strided views (``DomainGrid.deriv``)."""
    out = np.zeros(derivs[axes[0]].shape)
    for a in axes:
        out += coeffs[..., a, None] * derivs[a]
    return sf.project_tangent(phi.spec, phi.values, out)


class TensionChain:
    """The tension chain of one state ``(phi, frame)``, each field computed once.

    ``dphi``, ``tau``, ``grad_tau`` (nabla_{e_i} tau), ``lap_tau``,
    ``grad_lap_tau``, ``lap2_tau``, ``tau2`` and ``tau3`` are evaluated on
    first access and then shared; each coordinate derivative is taken once.
    Connection corrections are skipped on frames whose ``connection`` is
    exactly zero, and a trace differentiates S_i only along
    ``frame.axes[i]``: both skipped terms add exactly 0.  Every field is the
    same floating-point expression as a standalone evaluation, so sharing
    never changes a result.  ``nabla``, ``laplacian``, ``curvature`` and
    ``jacobi`` apply the chain's operators to any section along phi.  The
    chain also owns the state's scalars: energies, Etilde4, L^p and sup
    norms, and the pointwise |tau|^2 and |Delta tau|^2.  Build one chain per
    state and drop it with the state.
    """

    def __init__(self, phi: MapField, frame: FrameField):
        self.phi = phi
        self.frame = frame
        self._floor = phi.spectral_floor
        self._scalars = {}  # energies, L^p and sup norms, per (name, order)

    def nabla(self, V: Section | MapField) -> list:
        """Induced connection nabla_{e_i} V for each frame direction e_i:
        the ambient derivative of V along e_i, projected back onto the
        tangent space of the target.  Of phi itself, this is dphi(e_i), read
        from the map's ``coordinate_derivs``."""
        phi, frame = self.phi, self.frame
        if V is phi:
            derivs = phi.coordinate_derivs
        else:
            derivs = [phi.grid.deriv(V.values, a, floor=self._floor)
                      for a in range(phi.grid.dims)]
        return [Section(_along(phi, derivs, frame.e[..., i, :], frame.axes[i]), phi)
                for i in range(phi.grid.dims)]

    def _trace(self, sections: list, sign: float) -> Section:
        """sign * sum_i {nabla_{e_i} S_i - sum_j <nabla_{e_i} e_i, e_j> S_j}:
        tau for S_i = dphi(e_i), -Delta V for S_i = nabla_{e_i} V.  ``sign``
        is +1 or -1 and picks add or subtract; it multiplies nothing."""
        phi, frame = self.phi, self.frame
        add, sub = (np.add, np.subtract) if sign > 0 else (np.subtract, np.add)
        out = np.zeros(sections[0].values.shape)
        for i, s in enumerate(sections):
            derivs = {a: phi.grid.deriv(s.values, a, floor=self._floor)
                      for a in frame.axes[i]}
            add(out, _along(phi, derivs, frame.e[..., i, :], frame.axes[i]), out=out)
            if not frame.zero_connection:
                sub(out, sum(frame.connection[..., i, j, None] * t.values
                             for j, t in enumerate(sections)), out=out)
        return Section(out, phi)

    def laplacian(self, V: Section) -> Section:
        """Nonnegative connection Laplacian of a section along phi."""
        return self._trace(self.nabla(V), -1.0)

    def jacobi(self, V: Section, lap: Section = None) -> Section:
        """Jacobi operator J(V) = Delta V - sum_i R(V, dphi(e_i)) dphi(e_i).
        ``lap`` is Delta V when the chain already holds it."""
        if lap is None:
            lap = self.laplacian(V)
        return Section(lap.values - self.curvature(V).values, self.phi)

    def curvature(self, V: Section) -> Section:
        """sum_i R(V, dphi(e_i)) dphi(e_i); zero for flat targets."""
        out = np.zeros_like(V.values)
        if self.phi.spec.c != 0.0:
            for d in self.dphi:
                out += sf.curvature_op(
                    self.phi.spec, self.phi.values, V.values, d.values, d.values
                )
        return Section(out, self.phi)

    def _sq_sum(self, sections: list) -> np.ndarray:
        """Pointwise sum_i |S_i|^2, e.g. |dphi|^2 or |nabla V|^2."""
        out = np.zeros(self.phi.grid.shape)
        for s in sections:
            out += sf.inner(self.phi.spec, self.phi.values, s.values, s.values)
        return out

    @cached_property
    def dphi(self) -> list:
        return self.nabla(self.phi)

    @cached_property
    def tau(self) -> Section:
        return self._trace(self.dphi, 1.0)

    @cached_property
    def grad_tau(self) -> list:
        return self.nabla(self.tau)

    @cached_property
    def lap_tau(self) -> Section:
        return self._trace(self.grad_tau, -1.0)

    @cached_property
    def grad_lap_tau(self) -> list:
        return self.nabla(self.lap_tau)

    @cached_property
    def lap2_tau(self) -> Section:
        return self._trace(self.grad_lap_tau, -1.0)

    @cached_property
    def tau2(self) -> Section:
        """Bitension J(tau)."""
        return self.jacobi(self.tau, self.lap_tau)

    @cached_property
    def tau3(self) -> Section:
        """Tritension J(Delta tau) - sum_i R(nabla_{e_i} tau, tau) dphi(e_i)."""
        out = self.jacobi(self.lap_tau, self.lap2_tau).values
        if self.phi.spec.c != 0.0:
            for g, d in zip(self.grad_tau, self.dphi):
                out -= sf.curvature_op(
                    self.phi.spec, self.phi.values, g.values, self.tau.values, d.values
                )
        return Section(out, self.phi)

    @cached_property
    def tau_sq(self) -> np.ndarray:
        return sf.inner(self.phi.spec, self.phi.values, self.tau.values, self.tau.values)

    @cached_property
    def lap_sq(self) -> np.ndarray:
        return sf.inner(self.phi.spec, self.phi.values, self.lap_tau.values,
                        self.lap_tau.values)

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

    def field(self, k: int) -> Section:
        """Tension field of order k in {1, 2, 3}: tau, tau2 or tau3."""
        if k not in (1, 2, 3):
            raise ValueError(f"tension order must be 1, 2 or 3, got {k}")
        return getattr(self, ("tau", "tau2", "tau3")[k - 1])

    def energy(self, k: int) -> float:
        """k-th energy of the ladder: (1/2) Int |dphi|^2, |tau|^2 or |nabla tau|^2."""
        if ("E", k) not in self._scalars:
            if k == 1:
                density = self.dphi_sq
            elif k == 2:
                density = self.tau_norm**2
            elif k == 3:
                density = self.grad_tau_sq
            else:
                raise ValueError(f"energy order must be 1, 2 or 3, got {k}")
            self._scalars["E", k] = 0.5 * integrate(self.phi.grid, self.frame, density)
        return self._scalars["E", k]

    @cached_property
    def etilde4(self) -> float:
        """Iterated-Laplacian part of the fourth energy, (1/2) Int |Delta tau|^2."""
        return 0.5 * integrate(self.phi.grid, self.frame, self.lap_norm**2)

    def tension_lp(self, p: float) -> float:
        """Int |tau|^p, the p-th power of the L^p norm of the tension field."""
        if ("Lp", p) not in self._scalars:
            self._scalars["Lp", p] = integrate(self.phi.grid, self.frame,
                                               self.tau_norm ** float(p))
        return self._scalars["Lp", p]

    def sup_norm(self, k: int) -> float:
        """sup |tau|, |tau2| or |tau3| over the grid."""
        if ("sup", k) not in self._scalars:
            norm = self.tau_norm if k == 1 else self.field(k).norm_field()
            self._scalars["sup", k] = float(norm.max())
        return self._scalars["sup", k]


def tension(phi: MapField, frame: FrameField) -> Section:
    """Trace of the second fundamental form.

    tau = sum_i { nabla_{e_i}(dphi(e_i)) - dphi(nabla_{e_i} e_i) }.
    Vanishes exactly on geodesics / totally geodesic maps.  Short for
    ``TensionChain(phi, frame).tau``; perfbench's per-layer report reads its
    calls under this name.
    """
    return TensionChain(phi, frame).tau


def tritension_space_form(chain: TensionChain) -> Section:
    """Tritension field of the state whose tension chain is ``chain``,
    specialized to isometric immersions:

    tau3 = Delta^2 tau - sum_i R(Delta tau, dphi(e_i)) dphi(e_i)
           - c h(tau, tau) tau.

    Requires the domain metric to be the pullback metric (mode Induced, or
    a prescribed metric matching it to 1e-6); the simplification relies on
    the tension field being normal to the image, which fails quantitatively
    for non-isometric maps.
    """
    phi, frame = chain.phi, chain.frame
    if frame.mode is not MetricMode.INDUCED:
        dev = float(np.max(np.abs(induced_metric(phi).g - frame.metric.g)))
        if dev > ISOMETRY_TOL:
            raise NotIsometric(
                f"prescribed metric deviates from the pullback metric by {dev:.3e}"
            )
    tau = chain.tau
    out = chain.jacobi(chain.lap_tau, chain.lap2_tau).values
    if phi.spec.c != 0.0:
        h_tt = sf.inner(phi.spec, phi.values, tau.values, tau.values)
        out -= phi.spec.c * h_tt[..., None] * tau.values
    return Section(values=out, base=phi)
