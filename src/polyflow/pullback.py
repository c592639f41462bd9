"""Operator calculus on vector fields along a map.

Everything acting on sections of the pullback bundle lives here: the
differential, the induced connection (ambient derivative followed by the
tangent projection), the nonnegative connection Laplacian, the curvature
contraction, the Jacobi operator, and the tension / bitension / tritension
fields.  Sections are stored in ambient coordinates and re-projected after
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
    "differential",
    "nabla_bar",
    "tension",
    "rough_laplacian",
    "iterated_laplacian",
    "curvature_contraction",
    "jacobi",
    "bitension",
    "tritension_general",
    "tritension_space_form",
]

ISOMETRY_TOL = 1e-6


@dataclass
class MapField:
    """Discrete map into the target: one ambient point per grid node."""

    values: np.ndarray  # grid.shape + (ambient_dim,)
    grid: DomainGrid = field(repr=False, default=None)
    spec: sf.SpaceFormSpec = None

    def constraint_residual(self) -> float:
        return float(np.max(sf.constraint_residual(self.spec, self.values)))

    def spectral_floor(self) -> float:
        """Absolute Fourier-coefficient floor for derivatives of this map.

        Fields derived from the map inherit its roundoff scale; coefficients
        below this floor are indistinguishable from noise and would be
        amplified k^6-fold by the tritension chain.
        """
        return SPECTRAL_REL_CUTOFF * max(1.0, float(np.max(np.abs(self.values))))

    def copy(self) -> "MapField":
        return MapField(values=self.values.copy(), grid=self.grid, spec=self.spec)


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


def _coordinate_derivs(phi: MapField, values: np.ndarray, floor: float,
                       axes) -> dict:
    """Coordinate derivatives d_a(V) of an ambient field along phi, per axis a."""
    return {a: phi.grid.deriv(values, a, floor=floor) for a in axes}


def _along(phi: MapField, derivs: dict, coeffs: np.ndarray) -> np.ndarray:
    """Projected sum_a coeffs[..., a] * d_a(V), given the d_a(V)."""
    out = np.zeros_like(next(iter(derivs.values())))
    for a, d in derivs.items():
        out += coeffs[..., a, None] * d
    return sf.project_tangent(phi.spec, phi.values, out)


class TensionChain:
    """The tension chain of one state ``(phi, frame)``, each field computed once.

    ``dphi``, ``tau``, ``grad_tau`` (nabla_{e_i} tau), ``lap_tau``,
    ``grad_lap_tau``, ``lap2_tau``, ``tau2`` and ``tau3`` are evaluated on
    first access and then shared; each coordinate derivative is taken once.
    Connection corrections are skipped on frames whose ``div_terms`` are
    exactly zero, and a trace differentiates S_i only along
    ``frame.axes[i]``: both skipped terms add exactly 0.  Every field is the same
    floating-point expression as a standalone evaluation, so sharing never
    changes a result.  The chain also owns the state's scalars: energies,
    Etilde4, L^p and sup norms, and the pointwise |tau|^2 and |Delta tau|^2.
    Build one chain per state and drop it with the state.
    """

    def __init__(self, phi: MapField, frame: FrameField):
        self.phi = phi
        self.frame = frame
        self._floor = phi.spectral_floor()
        self._corrections = {}  # nabla_{nabla_{e_i} e_i} V per differentiated V
        self._scalars = {}  # energies, L^p and sup norms, per (name, order)

    def _covariant(self, key: str, values: np.ndarray) -> list:
        """nabla_{e_i} V over the frame directions; the connection terms
        nabla_{nabla_{e_i} e_i} V go to ``_corrections[key]`` unless zero."""
        phi, frame = self.phi, self.frame
        derivs = _coordinate_derivs(phi, values, self._floor, range(phi.grid.dims))
        if not frame.zero_div_terms:
            self._corrections[key] = [
                _along(phi, derivs, frame.div_terms[..., i, :])
                for i in range(phi.grid.dims)
            ]
        return [Section(_along(phi, derivs, frame.e[..., i, :]), phi)
                for i in range(phi.grid.dims)]

    def _trace(self, sections: list, key: str, sign: float) -> Section:
        """sign * sum_i {nabla_{e_i} S_i - C_i}, C_i the connection terms
        of ``key``: tau for S_i = dphi(e_i), -Delta V for S_i = nabla_{e_i} V.
        Each key is traced once (the traces are cached), so C_i are released."""
        corrections = self._corrections.pop(key, None)
        out = np.zeros_like(sections[0].values)
        for i, s in enumerate(sections):
            derivs = _coordinate_derivs(self.phi, s.values, self._floor,
                                        self.frame.axes[i])
            out += sign * _along(self.phi, derivs, self.frame.e[..., i, :])
            if corrections is not None:
                out -= sign * corrections[i]
        return Section(out, self.phi)

    def laplacian(self, V: Section) -> Section:
        """Nonnegative connection Laplacian of a section along phi."""
        return self._trace(self._covariant("V", V.values), "V", -1.0)

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
        return self._covariant("phi", self.phi.values)

    @cached_property
    def tau(self) -> Section:
        return self._trace(self.dphi, "phi", 1.0)

    @cached_property
    def grad_tau(self) -> list:
        return self._covariant("tau", self.tau.values)

    @cached_property
    def lap_tau(self) -> Section:
        return self._trace(self.grad_tau, "tau", -1.0)

    @cached_property
    def grad_lap_tau(self) -> list:
        return self._covariant("lap_tau", self.lap_tau.values)

    @cached_property
    def lap2_tau(self) -> Section:
        return self._trace(self.grad_lap_tau, "lap_tau", -1.0)

    @cached_property
    def tau2(self) -> Section:
        """Bitension J(tau) = Delta tau - sum_i R(tau, dphi(e_i)) dphi(e_i)."""
        return Section(self.lap_tau.values - self.curvature(self.tau).values, self.phi)

    @cached_property
    def tau3(self) -> Section:
        """Tritension J(Delta tau) - sum_i R(nabla_{e_i} tau, tau) dphi(e_i)."""
        out = self.lap2_tau.values - self.curvature(self.lap_tau).values
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
            self._scalars["sup", k] = float(np.max(norm))
        return self._scalars["sup", k]


def differential(phi: MapField, frame: FrameField) -> list:
    """Frame components dphi(e_i) of the differential, as Sections."""
    return TensionChain(phi, frame).dphi


def nabla_bar(V: Section, i: int, frame: FrameField) -> Section:
    """Induced connection along the i-th frame direction.

    Differentiate the ambient representative along e_i, then project back
    onto the tangent space of the target.
    """
    phi = V.base
    derivs = _coordinate_derivs(phi, V.values, phi.spectral_floor(), frame.axes[i])
    return Section(_along(phi, derivs, frame.e[..., i, :]), phi)


def tension(phi: MapField, frame: FrameField) -> Section:
    """Trace of the second fundamental form.

    tau = sum_i { nabla_{e_i}(dphi(e_i)) - dphi(nabla_{e_i} e_i) }.
    Vanishes exactly on geodesics / totally geodesic maps.
    """
    return TensionChain(phi, frame).tau


def rough_laplacian(V: Section, frame: FrameField) -> Section:
    """Nonnegative connection Laplacian.

    Delta V = -sum_i { nabla_{e_i} nabla_{e_i} V - nabla_{nabla_{e_i} e_i} V },
    so on the flat circle Delta V = -V'' componentwise.
    """
    return TensionChain(V.base, frame).laplacian(V)


def iterated_laplacian(V: Section, ell: int, frame: FrameField) -> Section:
    """(ell - 1)-fold application of the rough Laplacian; ell = 1 is V."""
    if ell < 1:
        raise ValueError(f"iteration index must be >= 1, got {ell}")
    chain = TensionChain(V.base, frame)
    out = V
    for _ in range(ell - 1):
        out = chain.laplacian(out)
    return out


def curvature_contraction(V: Section, frame: FrameField) -> Section:
    """Curvature term sum_i R(V, dphi(e_i)) dphi(e_i); zero for flat targets."""
    return TensionChain(V.base, frame).curvature(V)


def jacobi(V: Section, frame: FrameField) -> Section:
    """Jacobi operator J(V) = Delta V - sum_i R(V, dphi(e_i)) dphi(e_i)."""
    chain = TensionChain(V.base, frame)
    return Section(chain.laplacian(V).values - chain.curvature(V).values, V.base)


def bitension(phi: MapField, frame: FrameField) -> Section:
    """Bitension field: the Jacobi operator applied to the tension field."""
    return TensionChain(phi, frame).tau2


def tritension_general(phi: MapField, frame: FrameField) -> Section:
    """Tritension field for an arbitrary smooth map:

    tau3 = J(Delta tau) - sum_i R(nabla_{e_i} tau, tau) dphi(e_i).
    """
    return TensionChain(phi, frame).tau3


def tritension_space_form(phi: MapField, frame: FrameField) -> Section:
    """Tritension field specialized to isometric immersions:

    tau3 = Delta^2 tau - sum_i R(Delta tau, dphi(e_i)) dphi(e_i)
           - c h(tau, tau) tau.

    Requires the domain metric to be the pullback metric (mode Induced, or
    a prescribed metric matching it to 1e-6); the simplification relies on
    the tension field being normal to the image, which fails quantitatively
    for non-isometric maps.
    """
    if frame.mode is not MetricMode.INDUCED:
        dev = float(np.max(np.abs(induced_metric(phi).g - frame.metric.g)))
        if dev > ISOMETRY_TOL:
            raise NotIsometric(
                f"prescribed metric deviates from the pullback metric by {dev:.3e}"
            )
    chain = TensionChain(phi, frame)
    tau = chain.tau
    out = chain.lap2_tau.values - chain.curvature(chain.lap_tau).values
    if phi.spec.c != 0.0:
        h_tt = sf.inner(phi.spec, phi.values, tau.values, tau.values)
        out -= phi.spec.c * h_tt[..., None] * tau.values
    return Section(values=out, base=phi)
