"""Discrete periodic domains: grids, metrics, frames, integration.

The domain is a flat periodic lattice (circle for ``dims=1``, torus for
``dims=2``) carrying an arbitrary smooth Riemannian metric field, either
prescribed or induced by a map.  Three interchangeable differentiation
backends are provided:

* ``CentralFD2`` / ``CentralFD4`` -- classical central stencils, O(h^2) and
  O(h^4) respectively;
* ``Spectral`` -- FFT differentiation, exact on resolved trigonometric
  content.

High-order operator chains (up to sixth derivatives downstream) amplify the
FFT roundoff floor by k^6, which would swamp the answer long before the
discretization error does.  The spectral backend therefore zeroes Fourier
coefficients below a small relative threshold (and below an optional
absolute floor supplied by the caller) before applying the symbol; on
band-limited fields this makes repeated differentiation exact to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DegenerateImmersion, DegenerateMetric, InvalidSpec

__all__ = [
    "Differentiation",
    "MetricMode",
    "GridSpec",
    "DomainGrid",
    "MetricField",
    "FrameField",
    "build_grid",
    "induced_metric",
    "prescribed_metric",
    "identity_metric",
    "orthonormal_frame",
    "integrate",
    "scalar_gradient",
    "scalar_laplacian",
]

MIN_NODES = 16
# An H^3 torus audit peaks near 1 kB of resident memory per node, so this
# cap keeps any run near 1 GB.
MAX_NODES = 2**20

# Relative size under which a Fourier coefficient is treated as roundoff
# noise by the spectral backend.  Measured spurious coefficients of smooth
# fields sit near 1e-16; legitimate spectra relevant at the acceptance
# tolerances stay above 1e-13.
SPECTRAL_REL_CUTOFF = 1e-14


def whole_number(value, name: str) -> int:
    """``value`` as an int.  A value that is not a whole number (64.5, or
    the string "64") is a ValueError rather than being truncated; whole
    floats such as 64.0 pass."""
    number = int(value)
    if number != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return number


class Differentiation(str, Enum):
    CENTRAL_FD2 = "CentralFD2"
    CENTRAL_FD4 = "CentralFD4"
    SPECTRAL = "Spectral"


class MetricMode(str, Enum):
    PRESCRIBED = "Prescribed"
    INDUCED = "Induced"


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid specification.

    Parameters
    ----------
    dims : 1 or 2
    sizes : nodes per axis (each >= 16, at most MAX_NODES in all)
    lengths : period of each axis
    differentiation : backend name, see :class:`Differentiation`
    """

    dims: int
    sizes: tuple
    lengths: tuple
    differentiation: Differentiation = Differentiation.SPECTRAL

    def __post_init__(self):
        object.__setattr__(self, "dims", whole_number(self.dims, "dims"))
        object.__setattr__(
            self, "sizes", tuple(whole_number(s, "sizes") for s in self.sizes)
        )
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))
        object.__setattr__(
            self, "differentiation", Differentiation(self.differentiation)
        )
        if self.dims not in (1, 2):
            raise InvalidSpec(f"dims must be 1 or 2, got {self.dims}")
        if len(self.sizes) != self.dims or len(self.lengths) != self.dims:
            raise InvalidSpec("sizes and lengths must have one entry per axis")
        if any(s < MIN_NODES for s in self.sizes):
            raise InvalidSpec(f"every axis needs >= {MIN_NODES} nodes")
        if math.prod(self.sizes) > MAX_NODES:
            raise InvalidSpec(f"a grid may hold at most {MAX_NODES} nodes")
        if not all(0.0 < l < math.inf for l in self.lengths):
            raise InvalidSpec("axis lengths must be positive and finite")


class DomainGrid:
    """Materialized periodic grid with differentiation operators."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.shape = spec.sizes
        self.spacings = tuple(
            L / n for L, n in zip(spec.lengths, spec.sizes)
        )
        self.axes = [
            np.arange(n) * h for n, h in zip(spec.sizes, self.spacings)
        ]
        self.coords = np.meshgrid(*self.axes, indexing="ij")
        self.cell_volume = math.prod(self.spacings)
        # Non-negative wavenumbers of the real-input (rfft) half spectrum.
        self._wavenumbers = [
            2.0 * np.pi * np.fft.rfftfreq(n, d=h)
            for n, h in zip(spec.sizes, self.spacings)
        ]
        # Nyquist mode (last entry on even sizes) carries no usable phase for
        # a symmetric first derivative; zero it.
        for n, k in zip(spec.sizes, self._wavenumbers):
            if n % 2 == 0:
                k[-1] = 0.0
        self._symbols = {}  # 1j * k shaped for deriv, per (axis, field ndim)

    @property
    def dims(self) -> int:
        return self.spec.dims

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    def deriv(self, values: np.ndarray, axis: int, floor: float = 0.0) -> np.ndarray:
        """First derivative of a periodic field along a node axis.

        ``values`` may carry trailing component axes; ``axis`` indexes the
        node axes only.  ``floor`` is an absolute coefficient floor for the
        spectral backend (ignored by the stencil backends): coefficients
        below ``max(floor, rel_cutoff * line_max)`` are treated as noise.
        """
        values = np.asarray(values, dtype=float)
        h = self.spacings[axis]
        kind = self.spec.differentiation
        if kind is Differentiation.CENTRAL_FD2:
            return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (
                2.0 * h
            )
        if kind is Differentiation.CENTRAL_FD4:
            return (
                -np.roll(values, -2, axis=axis)
                + 8.0 * np.roll(values, -1, axis=axis)
                - 8.0 * np.roll(values, 1, axis=axis)
                + np.roll(values, 2, axis=axis)
            ) / (12.0 * h)
        # A real field's spectrum is conjugate-symmetric, |f(-k)| = |f(k)|:
        # the half spectrum has the same line max and loses no coefficient.
        fh = np.fft.rfft(values, axis=axis)
        mag = np.abs(fh)
        amp = np.max(mag, axis=axis, keepdims=True)
        cutoff = np.maximum(SPECTRAL_REL_CUTOFF * amp, floor)
        fh[mag < cutoff] = 0.0
        symbol = self._symbols.get((axis, fh.ndim))
        if symbol is None:
            k = self._wavenumbers[axis]
            shape = [1] * fh.ndim
            shape[axis] = k.size
            symbol = self._symbols[(axis, fh.ndim)] = 1j * k.reshape(shape)
        return np.fft.irfft(symbol * fh, n=values.shape[axis], axis=axis)

    def periodic_distance(self, center) -> np.ndarray:
        """Distance to a node in the flat periodic (torus) geometry."""
        center = tuple(center) if self.dims > 1 else (int(np.atleast_1d(center)[0]),)
        d2 = np.zeros(self.shape)
        for a in range(self.dims):
            delta = np.abs(self.coords[a] - self.axes[a][center[a]])
            delta = np.minimum(delta, self.spec.lengths[a] - delta)
            d2 = d2 + delta**2
        return np.sqrt(d2)


@dataclass
class MetricField:
    """Per-node symmetric metric tensor over a grid."""

    g: np.ndarray  # shape grid.shape + (dims, dims)
    mode: MetricMode
    grid: DomainGrid = field(repr=False, default=None)


@dataclass
class FrameField:
    """Orthonormal frame with connection data.

    ``e[..., i, a]`` is the coefficient of the coordinate field along axis
    ``a`` in the i-th frame vector; ``div_terms[..., i, c]`` expresses the
    self-covariant-derivative of the i-th frame vector in the coordinate
    basis; ``vol`` is sqrt(det g).  ``zero_div_terms`` is read from the
    data: flat frames (constant metric) and every 1-d frame have exactly
    zero ``div_terms``, and connection corrections are then skipped.
    """

    e: np.ndarray
    div_terms: np.ndarray
    vol: np.ndarray
    metric: MetricField = field(repr=False, default=None)
    grid: DomainGrid = field(repr=False, default=None)
    zero_div_terms: bool = field(init=False, repr=False)

    def __post_init__(self):
        self.zero_div_terms = not np.any(self.div_terms)

    @property
    def mode(self) -> MetricMode:
        return self.metric.mode

    @cached_property
    def axes(self) -> tuple:
        """Per frame direction i, the coordinate axes a with e[..., i, a] not
        identically zero: a derivative along any other axis is multiplied by
        exact zeros, so it is not taken."""
        d = self.e.shape[-1]
        return tuple(tuple(a for a in range(d) if np.any(self.e[..., i, a]))
                     for i in range(d))

    @cached_property
    def volume(self) -> float:
        """Int 1 dvol, integrated once per frame."""
        return integrate(self.grid, self, np.ones(self.grid.shape))


def build_grid(spec: GridSpec) -> DomainGrid:
    """Materialize node coordinates, spacings, and derivative operators."""
    return DomainGrid(spec)


def induced_metric(phi) -> MetricField:
    """Pullback metric g_ab = h(d_a phi, d_b phi) of a map field.

    Raises :class:`DegenerateImmersion` unless det g > 1e-10 at every node,
    so a NaN metric is rejected too.
    """
    from .space_form import ambient_form  # local import avoids a cycle

    grid, spec = phi.grid, phi.spec
    floor = phi.spectral_floor()
    dphi = [grid.deriv(phi.values, a, floor=floor) for a in range(grid.dims)]
    g = np.empty(grid.shape + (grid.dims, grid.dims))
    for a in range(grid.dims):
        for b in range(a, grid.dims):
            gab = ambient_form(spec, dphi[a], dphi[b])
            g[..., a, b] = gab
            g[..., b, a] = gab
    if not np.all(np.linalg.det(g) > 1e-10):
        raise DegenerateImmersion("induced metric is singular: map fails to immerse")
    return MetricField(g=g, mode=MetricMode.INDUCED, grid=grid)


def prescribed_metric(grid: DomainGrid, g: np.ndarray) -> MetricField:
    """Wrap a user-supplied metric tensor field as Prescribed."""
    g = np.asarray(g, dtype=float)
    expected = grid.shape + (grid.dims, grid.dims)
    if g.shape != expected:
        raise DegenerateMetric(f"metric shape {g.shape} != {expected}")
    return MetricField(g=g, mode=MetricMode.PRESCRIBED, grid=grid)


def identity_metric(grid: DomainGrid) -> MetricField:
    """Flat prescribed metric g = delta_ab."""
    g = np.zeros(grid.shape + (grid.dims, grid.dims))
    for a in range(grid.dims):
        g[..., a, a] = 1.0
    return prescribed_metric(grid, g)


def orthonormal_frame(grid: DomainGrid, metric: MetricField) -> FrameField:
    """Gram-Schmidt frame (e1 along axis 0) plus connection data.

    The connection terms come from the frame's Lie bracket (Cartan's first
    structure equation): for an orthonormal pair, nabla_{e1} e1 =
    -<[e1, e2], e1> e2 and nabla_{e2} e2 = <[e1, e2], e2> e1.  On a circle
    they vanish, since a unit field on a curve is parallel along itself.

    Raises :class:`DegenerateMetric` unless g is positive definite
    (minimum eigenvalue > 1e-10, so not NaN) at every node.
    """
    g = metric.g
    d = grid.dims
    if not np.all(np.linalg.eigvalsh(g)[..., 0] > 1e-10):
        raise DegenerateMetric("metric is not positive definite everywhere")
    e = np.zeros(grid.shape + (d, d))
    e[..., 0, 0] = 1.0 / np.sqrt(g[..., 0, 0])
    div_terms = np.zeros_like(e)
    if d == 2:
        # w = d2 - (g12/g11) d1, normalized by sqrt(g22 - g12^2/g11)
        w0 = -g[..., 0, 1] / g[..., 0, 0]
        wnorm = np.sqrt(g[..., 1, 1] - g[..., 0, 1] ** 2 / g[..., 0, 0])
        e[..., 1, 0] = w0 / wnorm
        e[..., 1, 1] = 1.0 / wnorm
        # [e1, e2]^c = e1^a d_a e2^c - e2^a d_a e1^c, lowered by g
        e1, e2 = e[..., 0, :], e[..., 1, :]
        bracket = np.zeros(grid.shape + (d,))
        for a in range(d):
            if np.any(e1[..., a]):
                bracket += e1[..., a, None] * grid.deriv(e2, a)
            if np.any(e2[..., a]):
                bracket -= e2[..., a, None] * grid.deriv(e1, a)
        lowered = np.sum(g * bracket[..., None], axis=-2)
        div_terms[..., 0, :] = -np.sum(lowered * e1, axis=-1)[..., None] * e2
        div_terms[..., 1, :] = np.sum(lowered * e2, axis=-1)[..., None] * e1

    vol = np.sqrt(np.linalg.det(g))
    return FrameField(e=e, div_terms=div_terms, vol=vol, metric=metric, grid=grid)


def integrate(grid: DomainGrid, frame: FrameField, f: np.ndarray) -> float:
    """Integral of a per-node scalar against the volume element.

    The periodic Riemann sum (= trapezoid rule) is used; summation is
    compensated so reduction order cannot perturb the result.
    """
    f = np.asarray(f, dtype=float)
    return math.fsum(memoryview((f * frame.vol).ravel())) * grid.cell_volume


def scalar_gradient(grid: DomainGrid, frame: FrameField, f: np.ndarray) -> np.ndarray:
    """Frame components e_i(f) of the gradient; shape grid.shape + (dims,)."""
    out = np.empty(grid.shape + (grid.dims,))
    df = [grid.deriv(f, a) for a in range(grid.dims)]
    for i in range(grid.dims):
        acc = np.zeros(grid.shape)
        for a in range(grid.dims):
            acc += frame.e[..., i, a] * df[a]
        out[..., i] = acc
    return out


def scalar_laplacian(grid: DomainGrid, frame: FrameField, f: np.ndarray) -> np.ndarray:
    """Positive Laplace-Beltrami operator on scalars.

    Sign convention matches the connection Laplacian used on sections:
    Delta f = -sum_i { e_i(e_i(f)) - (nabla_{e_i} e_i)(f) }, so that on the
    flat circle Delta f = -f''.
    """
    d = grid.dims
    df = [grid.deriv(f, a) for a in range(d)]
    out = np.zeros(grid.shape)
    for i in range(d):
        ei_f = np.zeros(grid.shape)
        for a in range(d):
            ei_f += frame.e[..., i, a] * df[a]
        second = np.zeros(grid.shape)
        for a in frame.axes[i]:
            second += frame.e[..., i, a] * grid.deriv(ei_f, a)
        correction = np.zeros(grid.shape)
        for c in range(d):
            correction += frame.div_terms[..., i, c] * df[c]
        out -= second - correction
    return out
