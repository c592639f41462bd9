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
    "laplace_beltrami",
]

MIN_NODES = 16
# A 512^2 H^3 torus audit peaks at 248 MiB resident (ru_maxrss of its own
# process; numpy 2.4.6), 0.86 KiB per node above the 29 MiB that Python,
# numpy and polyflow hold after import, so this cap keeps any run near 1 GB.
MAX_NODES = 2**20

# Relative size under which a Fourier coefficient is treated as roundoff
# noise by the spectral backend.  Measured spurious coefficients of smooth
# fields sit near 1e-16; legitimate spectra relevant at the acceptance
# tolerances stay above 1e-13.
SPECTRAL_REL_CUTOFF = 1e-14

# Below this many terms ``exact_sum`` calls math.fsum, which is then as fast
# or faster: on a 2-core Xeon (numpy 2.4.6) both took 27 us at 768 terms, and
# at 1024 fsum took 40 us against 27.
FSUM_MAX_TERMS = 1024


def whole_number(value, name: str) -> int:
    """``value`` as an int.  A value that is not a whole number (64.5, the
    string "64", a bool, NaN, inf or None) is a ValueError rather than
    being truncated; whole floats such as 64.0 pass."""
    try:
        number = int(value)
        whole = number == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):  # None, "x", nan, inf
        whole = False
    if not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return number


def real_number(value, name: str) -> float:
    """``value`` as a float.  A bool or a string is a ValueError rather
    than 0.0, 1.0 or the number the string spells."""
    if isinstance(value, (bool, np.bool_, str)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


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
        object.__setattr__(
            self, "lengths", tuple(real_number(l, "lengths") for l in self.lengths)
        )
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
        self._symbols = {}  # (1j * k, -k^2) shaped for deriv, per (axis, field ndim)
        self._q_powers = {}  # |q|^(2k) for the implicit flow step, per order k

    @property
    def dims(self) -> int:
        return self.spec.dims

    @property
    def angles(self) -> list:
        """Per node axis a, the angle 2 pi x_a / L_a: one turn per period.
        Formed on each access, so no array outlives its reader."""
        return [2.0 * np.pi * self.coords[a] / self.spec.lengths[a]
                for a in range(self.dims)]

    def q_power(self, k: int) -> np.ndarray:
        """|q|^(2k) on the rfftn half spectrum of a field with one trailing
        component axis, per order ``k``; q is the true wavenumber (Nyquist
        kept, which ``deriv`` zeroes)."""
        if k not in self._q_powers:
            q_sq = 0.0
            for axis, (n, length) in enumerate(zip(self.shape, self.spec.lengths)):
                mode = np.minimum(np.arange(n), np.arange(n, 0, -1))
                if axis == self.dims - 1:  # rfftn halves the last node axis
                    mode = mode[:n // 2 + 1]
                shape = (-1,) + (1,) * (self.dims - axis)
                q_sq = q_sq + ((2.0 * np.pi / length) * mode).reshape(shape) ** 2
            self._q_powers[k] = q_sq**k
        return self._q_powers[k]

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
        return self._spectral(values, axis, floor, False)[0]

    def deriv12(self, values: np.ndarray, axis: int, floor: float = 0.0) -> list:
        """``[d_a V, d_a^2 V]``, thresholded as by ``deriv``: the symbols ik and
        -k^2 (Nyquist zeroed in both) on one rfft, the first ``deriv``'s bit
        for bit, or ``deriv`` twice on a stencil backend."""
        if self.spec.differentiation is not Differentiation.SPECTRAL:
            first = self.deriv(values, axis, floor)
            return [first, self.deriv(first, axis, floor)]
        return self._spectral(np.asarray(values, dtype=float), axis, floor, True)

    def _spectral(self, values, axis, floor, second) -> list:
        # Lines along a middle axis (the second node axis of a field with
        # components) are moved last and contiguous: numpy transforms and
        # reduces strided lines several times slower, and each line's
        # transform, max and product are the same arithmetic in any layout.
        # Each result is returned as a view with that axis moved back.
        middle = 0 < axis < values.ndim - 1
        line_axis = -1 if middle else axis
        lines = np.ascontiguousarray(np.moveaxis(values, axis, -1)) if middle else values
        # A real field's spectrum is conjugate-symmetric, |f(-k)| = |f(k)|:
        # the half spectrum has the same line max and loses no coefficient.
        fh = np.fft.rfft(lines, axis=line_axis)
        mag = np.abs(fh)
        amp = mag.max(axis=line_axis, keepdims=True)
        cutoff = np.maximum(SPECTRAL_REL_CUTOFF * amp, floor)
        np.copyto(fh, 0.0, where=mag < cutoff)
        del lines, mag  # freed before the inverse transforms
        symbols = self._symbols.get((axis, fh.ndim))
        if symbols is None:
            shape = [1] * fh.ndim
            shape[line_axis] = -1
            k = self._wavenumbers[axis].reshape(shape)
            symbols = self._symbols[(axis, fh.ndim)] = (1j * k, -k * k)
        n = values.shape[axis]
        # each derivative is a separate array, so a caller that sums d_a^2 V
        # in can free it at once
        out = [np.fft.irfft(fh * symbols[1], n=n, axis=line_axis)] if second else []
        fh *= symbols[0]
        out.insert(0, np.fft.irfft(fh, n=n, axis=line_axis))
        return [np.moveaxis(d, -1, axis) for d in out] if middle else out


@dataclass
class MetricField:
    """Per-node symmetric metric tensor over a grid."""

    g: np.ndarray  # shape grid.shape + (dims, dims)
    mode: MetricMode


@dataclass
class FrameField:
    """Orthonormal frame and the metric's Laplace-Beltrami coefficients.

    ``e[..., i, a]`` is the coefficient of the coordinate field along axis
    ``a`` in the i-th frame vector; ``vol`` is sqrt(det g).  ``G^{ab}`` =
    sum_i e_i^a e_i^b = g^{ab} and ``B^b`` = (1/sqrt g) d_a(sqrt g G^{ab})
    make the frame trace sum_i {e_i(e_i(f)) - (nabla_{e_i} e_i)(f)} =
    G^{ab} d_a d_b f + B^b d_b f, the Laplace-Beltrami operator.
    """

    e: np.ndarray
    vol: np.ndarray
    G: np.ndarray
    B: np.ndarray
    metric: MetricField = field(repr=False, default=None)
    grid: DomainGrid = field(repr=False, default=None)

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

    def along(self, derivs) -> list:
        """sum_a e_i^a d_a V per frame direction i, over ``axes[i]``, from the
        d_a V by axis, with or without trailing components; C-ordered
        whatever their layout (``deriv`` gives strided views)."""
        tail = (None,) * (derivs[0].ndim - self.e.ndim + 2)
        out = []
        for i, axes in enumerate(self.axes):
            acc = np.zeros(derivs[axes[0]].shape)
            for a in axes:
                acc += self.e[(..., i, a) + tail] * derivs[a]
            out.append(acc)
        return out

    @cached_property
    def lb_terms(self) -> tuple:
        """``(G^{01} is not identically zero, the b whose B^b is not)``: the
        other trace terms are exact zeros, which :func:`laplace_beltrami` skips."""
        d = self.e.shape[-1]
        return (d == 2 and bool(np.any(self.G[..., 0, 1])),
                tuple(b for b in range(d) if np.any(self.B[..., b])))

    @cached_property
    def volume(self) -> float:
        """Int 1 dvol, integrated once per frame."""
        return integrate(self.grid, self, np.ones(self.grid.shape))


def build_grid(spec: GridSpec) -> DomainGrid:
    """Materialize node coordinates, spacings, and derivative operators."""
    return DomainGrid(spec)


def _det2(g: np.ndarray) -> np.ndarray:
    """Determinant of every 1x1 or 2x2 matrix of a metric field."""
    if g.shape[-1] == 1:
        return g[..., 0, 0]
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def _min_eigenvalue(g: np.ndarray) -> np.ndarray:
    """Smaller eigenvalue of every symmetric 1x1 or 2x2 g, with no division."""
    if g.shape[-1] == 1:
        return g[..., 0, 0]
    half_tr = 0.5 * (g[..., 0, 0] + g[..., 1, 1])
    half_diff = 0.5 * (g[..., 0, 0] - g[..., 1, 1])
    return half_tr - np.sqrt(half_diff**2 + g[..., 0, 1] ** 2)


def induced_metric(phi) -> MetricField:
    """Pullback metric g_ab = h(d_a phi, d_b phi) of a map field.

    Raises :class:`DegenerateImmersion` unless det g > 1e-10 at every node,
    so a NaN metric is rejected too.  g is the map's own ``pullback_metric``,
    formed once from the ``coordinate_derivs`` its tension chains share.
    """
    g = phi.pullback_metric
    if not np.all(_det2(g) > 1e-10):
        raise DegenerateImmersion("induced metric is singular: map fails to immerse")
    return MetricField(g=g, mode=MetricMode.INDUCED)


def prescribed_metric(grid: DomainGrid, g: np.ndarray) -> MetricField:
    """Wrap a user-supplied metric tensor field as Prescribed."""
    g = np.asarray(g, dtype=float)
    expected = grid.shape + (grid.dims, grid.dims)
    if g.shape != expected:
        raise DegenerateMetric(f"metric shape {g.shape} != {expected}")
    return MetricField(g=g, mode=MetricMode.PRESCRIBED)


def identity_metric(grid: DomainGrid) -> MetricField:
    """Flat prescribed metric g = delta_ab."""
    g = np.zeros(grid.shape + (grid.dims, grid.dims))
    for a in range(grid.dims):
        g[..., a, a] = 1.0
    return prescribed_metric(grid, g)


def orthonormal_frame(grid: DomainGrid, metric: MetricField) -> FrameField:
    """Gram-Schmidt frame (e1 along axis 0) and the Laplace-Beltrami
    coefficients G = g^-1 and B^b = (1/sqrt g) d_a(sqrt g G^{ab}), the
    latter from one ``deriv`` of row a of sqrt g G along each axis a.

    Raises :class:`DegenerateMetric` unless g is positive definite
    (minimum eigenvalue > 1e-10, so not NaN) at every node.
    """
    g = metric.g
    d = grid.dims
    if not np.all(_min_eigenvalue(g) > 1e-10):
        raise DegenerateMetric("metric is not positive definite everywhere")
    e = np.zeros(grid.shape + (d, d))
    e[..., 0, 0] = 1.0 / np.sqrt(g[..., 0, 0])
    if d == 2:
        # w = d2 - (g12/g11) d1, normalized by sqrt(g22 - g12^2/g11)
        w0 = -g[..., 0, 1] / g[..., 0, 0]
        wnorm = np.sqrt(g[..., 1, 1] - g[..., 0, 1] ** 2 / g[..., 0, 0])
        e[..., 1, 0] = w0 / wnorm
        e[..., 1, 1] = 1.0 / wnorm
    vol = np.sqrt(_det2(g))
    G = np.empty_like(e)
    for b in range(d):  # G^{ab} = sum_i e_i^a e_i^b
        for a in range(b + 1):
            G[..., a, b] = G[..., b, a] = sum(e[..., i, a] * e[..., i, b]
                                              for i in range(d))
    div = sum(grid.deriv(vol[..., None] * G[..., a, :], a) for a in range(d))
    return FrameField(e=e, vol=vol, G=G, B=div / vol[..., None],
                      metric=metric, grid=grid)


def integrate(grid: DomainGrid, frame: FrameField, f: np.ndarray) -> float:
    """Integral of a per-node scalar against the volume element.

    The periodic Riemann sum (= trapezoid rule) of ``f * vol`` over the
    nodes is correctly rounded (:func:`exact_sum`, equal to ``math.fsum``
    bit for bit), then scaled by the cell volume, so neither reduction order
    nor the summation method can perturb the result.  It never raises: when
    the node sum overflows but the integral fits, the sum is taken of terms
    scaled by an exact power of two; an integral beyond the float range is
    +-inf, and inf - inf or a NaN term gives NaN.
    """
    terms = (np.asarray(f, dtype=float) * frame.vol).ravel()
    try:
        try:
            return exact_sum(terms) * grid.cell_volume
        except OverflowError:
            # fewer than 2**30 terms, each below 2**1024, sum below 2**1023
            # once scaled by 2**-31; scaled back, a product beyond the float
            # range is inf
            return exact_sum(terms * 2.0**-31) * grid.cell_volume * 2.0**31
    except ValueError:  # +inf and -inf terms
        return math.nan


def exact_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of a 1-d float64 array: ``math.fsum(x)`` bit
    for bit, and its OverflowError and ValueError too.

    Large arrays take Rump, Ogita and Oishi's error-free extraction
    ("Accurate floating-point summation, part I", 2008).  With sigma a power
    of two at least (n + 2) * 2**e, where 2**e > max|x|, q = (sigma + x) -
    sigma is x rounded to a multiple of ulp(sigma) / 2 and r = x - q is
    exact.  Every partial sum of q is such a multiple below sigma, so
    ``hi = sum(q)`` is exact in any order, while ``lo = sum(r)``, in any
    order, errs by less than n**2 2**-105 sigma.  If hi + lo -+ B, with B
    twice that, round to one float, so does the exact sum between them.
    Otherwise (a sum near a rounding boundary or exactly 0), and for short
    arrays, non-finite terms and magnitudes near the ends of the float
    range, the sum is ``math.fsum`` (Shewchuk's algorithm).
    """
    n = x.size
    if n >= FSUM_MAX_TERMS:
        m = float(np.max(np.abs(x)))
        if 2.0**-900 <= m < 2.0**960:  # also false for NaN and inf
            k = math.frexp(m)[1] + (n + 1).bit_length()  # sigma = 2**k
            q = x + 2.0**k
            q -= 2.0**k
            hi = float(np.sum(q))
            lo = float(np.sum(np.subtract(x, q, out=q)))
            bound = math.ldexp(float(n * n), k - 104)
            below = math.fsum((hi, lo, -bound))
            if below == math.fsum((hi, lo, bound)):
                return below
    return math.fsum(memoryview(x))


def laplace_beltrami(grid: DomainGrid, frame: FrameField, values: np.ndarray,
                     floor: float = 0.0, pairs=None) -> tuple:
    """``([d_a V], G^{ab} d_a d_b V + B^b d_b V)`` of a field, with or
    without trailing components, from ``pairs``: ``grid.deriv12`` per axis,
    taken here unless given.  Each d_a^2 V is summed in as it is taken, so
    none is kept; d_0 d_1 V is a ``deriv`` of d_0 V, taken only when G^{01}
    is not identically zero, and a B^b term only when B^b is not."""
    mixed, drift = frame.lb_terms
    tail = (None,) * (np.ndim(values) - grid.dims)
    own = pairs is None  # then each d_a^2 V is ours to overwrite
    if own:
        pairs = (grid.deriv12(values, a, floor) for a in range(grid.dims))
    firsts = []
    for a, (d, d2) in enumerate(pairs):
        term = np.multiply(frame.G[(..., a, a) + tail], d2, out=d2 if own else None)
        out = np.add(out, term, out=out) if a else term
        firsts.append(d)
    if mixed:
        out += (2.0 * frame.G[(..., 0, 1) + tail]) * grid.deriv(firsts[0], 1, floor)
    for b in drift:
        out += frame.B[(..., b) + tail] * firsts[b]
    return firsts, out
