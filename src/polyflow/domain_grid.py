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
    "components_outermost",
]

MIN_NODES = 16
# A 512^2 H^3 torus audit peaks at 234 MiB resident (ru_maxrss of its own
# process; numpy 2.4.6), 0.80 KiB per node above the 29 MiB that Python,
# numpy and polyflow hold after import, so this cap keeps any run near 1 GB.
MAX_NODES = 2**20

# Relative size under which a Fourier coefficient is treated as roundoff
# noise by the spectral backend.  Measured spurious coefficients of smooth
# fields sit near 1e-16; legitimate spectra relevant at the acceptance
# tolerances stay above 1e-13.
SPECTRAL_REL_CUTOFF = 1e-14

# Relative size up to which a frame coefficient, or its spread, is roundoff
# (``_classify``): 18 to 21 times the roundoff e_1^0 and G^{01} of the H^3 tube
# torus at 128^2, rho 0.39 to 0.41.
FRAME_REL_TOL = 64 * np.finfo(float).eps

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
    """``value`` as a float.  A bool, a string, a complex number, None or a
    list is a ValueError rather than 0.0, 1.0, the number the string spells
    or ``float``'s TypeError."""
    try:
        if not isinstance(value, (bool, np.bool_, str, complex, np.complexfloating)):
            return float(value)
    except (TypeError, ValueError):  # None, a list
        pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


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
        self.coords = np.meshgrid(
            *(np.arange(n) * h for n, h in zip(spec.sizes, self.spacings)),
            indexing="ij")
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
        # A field with components is transformed in its components-outermost
        # layout (:func:`components_outermost`), where each component is one
        # C-ordered plane: lines along the last node axis are contiguous with
        # no copy, each line's transform, max and product are the same
        # arithmetic in any layout, and every result keeps that layout.
        if values.ndim > self.dims:
            values = components_outermost(values)
        # A real field's spectrum is conjugate-symmetric, |f(-k)| = |f(k)|:
        # the half spectrum has the same line max and loses no coefficient.
        fh = np.fft.rfft(values, axis=axis)
        mag = np.abs(fh)
        amp = mag.max(axis=axis, keepdims=True)
        cutoff = np.maximum(SPECTRAL_REL_CUTOFF * amp, floor)
        np.copyto(fh, 0.0, where=mag < cutoff)
        del mag  # freed before the inverse transforms
        symbols = self._symbols.get((axis, fh.ndim))
        if symbols is None:
            shape = [1] * fh.ndim
            shape[axis] = -1
            k = self._wavenumbers[axis].reshape(shape)
            symbols = self._symbols[(axis, fh.ndim)] = (1j * k, -k * k)
        n = values.shape[axis]
        # each derivative is a separate array, so a caller that sums d_a^2 V
        # in can free it at once
        out = [np.fft.irfft(fh * symbols[1], n=n, axis=axis)] if second else []
        fh *= symbols[0]
        out.insert(0, np.fft.irfft(fh, n=n, axis=axis))
        return out


def components_outermost(values: np.ndarray) -> np.ndarray:
    """``values``, a ``grid.shape + (m,)`` section, with the same shape and
    entries and its m components the outermost memory axis, so each
    component is one C-ordered grid plane: ``values`` itself when they
    already are, else a copy.  Every section along a map is held so."""
    last = values.ndim - 1
    # np.moveaxis(values, -1, 0) at a sixth of its cost: every deriv checks
    planes = values.transpose((last,) + tuple(range(last)))
    if planes.flags.c_contiguous:
        return values
    return np.moveaxis(np.ascontiguousarray(planes), 0, -1)


@dataclass
class MetricField:
    """Per-node symmetric metric tensor over a grid."""

    g: np.ndarray  # shape grid.shape + (dims, dims)
    mode: MetricMode


@dataclass
class FrameField:
    """Orthonormal frame and the metric's Laplace-Beltrami coefficients.

    ``e[i][a]`` is the coefficient of the coordinate field along axis ``a``
    in the i-th frame vector; ``vol`` is sqrt(det g).  ``G[a][b]`` =
    sum_i e_i^a e_i^b = g^{ab} and ``B[b]`` = (1/sqrt g) d_a(sqrt g G^{ab})
    make the frame trace sum_i {e_i(e_i(f)) - (nabla_{e_i} e_i)(f)} =
    G^{ab} d_a d_b f + B^b d_b f, the Laplace-Beltrami operator.  Each
    coefficient is held once, as :func:`orthonormal_frame` classed it: 0.0
    where it is roundoff, one float where only its spread is, else one
    grid-shaped array.
    """

    e: tuple
    vol: float | np.ndarray
    G: tuple
    B: tuple
    metric: MetricField = field(repr=False)
    grid: DomainGrid = field(repr=False)

    @cached_property
    def axes(self) -> tuple:
        """Per frame direction i, the coordinate axes a with e_i^a not 0.0: a
        derivative along any other axis is not taken."""
        return tuple(tuple(a for a, c in enumerate(row) if np.any(c)) for row in self.e)

    def along(self, derivs) -> list:
        """sum_a e_i^a d_a V per frame direction i, over ``axes[i]``, from the
        d_a V by axis, with or without trailing components; each sum has the
        layout of its first d_a V, components outermost on a section.  The sum
        starts from +0.0, as the plain sum over every axis does, which turns a
        -0.0 product into +0.0."""
        tail = (None,) * (derivs[0].ndim - len(self.e))
        out = []
        for row, axes in zip(self.e, self.axes):
            acc = np.zeros_like(derivs[axes[0]])
            for a in axes:
                acc += _per_node(row[a], tail) * derivs[a]
            out.append(acc)
        return out

    @cached_property
    def lb_terms(self) -> tuple:
        """``(G^{01} is not 0.0, the b whose B^b is not)``: the other trace
        terms are zeros, which :func:`laplace_beltrami` skips."""
        return (len(self.e) == 2 and bool(np.any(self.G[0][1])),
                tuple(b for b, c in enumerate(self.B) if np.any(c)))

    @cached_property
    def volume(self) -> float:
        """Int 1 dvol, integrated once per frame."""
        return integrate(self, np.ones(self.grid.shape))


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


def _per_node(c, tail: tuple):
    """A frame coefficient shaped to multiply a field with trailing axes."""
    return c[(...,) + tail] if isinstance(c, np.ndarray) else c


def _classify(family: list) -> list:
    """Each coefficient of a family as 0.0 where its largest |value|, and as
    one float (its mean) where its spread, is at most FRAME_REL_TOL times
    the family's largest |value|; otherwise as one contiguous array."""
    bounds = [(float(c.min()), float(c.max())) if isinstance(c, np.ndarray) else (c, c)
              for c in family]
    tol = FRAME_REL_TOL * max(max(-lo, hi) for lo, hi in bounds)
    return [0.0 if max(-lo, hi) <= tol else np.ascontiguousarray(c) if hi - lo > tol
            else lo if lo == hi else float(c.mean()) for c, (lo, hi) in zip(family, bounds)]


def _constant_along(c: np.ndarray, axis: int) -> bool:
    """Whether every line of ``c`` along ``axis`` spreads by at most
    FRAME_REL_TOL times c's largest |value|, the spread :func:`_classify`
    takes for roundoff.  d_axis c is then exactly 0 (the H^3 tube torus's
    d_0(sqrt g G^{00})) and is not taken, on every backend: a spectral
    derivative would give 0 too, as its cutoff zeroes the roundoff, and a
    stencil's difference quotient that roundoff divided by h."""
    return float(np.ptp(c, axis=axis).max()) <= FRAME_REL_TOL * float(np.abs(c).max())


def orthonormal_frame(grid: DomainGrid, metric: MetricField) -> FrameField:
    """Gram-Schmidt frame (e1 along axis 0) and the Laplace-Beltrami
    coefficients G = g^-1 and B^b = (1/sqrt g) d_a(sqrt g G^{ab}), each
    family classed by :func:`_classify` as it is formed; B takes one ``deriv``
    along axis a of each sqrt g G^{ab} that is not constant along a
    (:func:`_constant_along`), with one rule on every backend: a flux
    constant along a adds exactly 0.

    Raises :class:`DegenerateMetric` unless g is positive definite
    (minimum eigenvalue > 1e-10, so not NaN) at every node.
    """
    g = metric.g
    d = grid.dims
    if not np.all(_min_eigenvalue(g) > 1e-10):
        raise DegenerateMetric("metric is not positive definite everywhere")
    e = [1.0 / np.sqrt(g[..., 0, 0])] + [0.0] * (d - 1)
    if d == 2:
        # w = d2 - (g12/g11) d1, normalized by sqrt(g22 - g12^2/g11)
        w0 = -g[..., 0, 1] / g[..., 0, 0]
        wnorm = np.sqrt(g[..., 1, 1] - g[..., 0, 1] ** 2 / g[..., 0, 0])
        e += [w0 / wnorm, 1.0 / wnorm]
    e = _classify(e)
    e = tuple(tuple(e[i * d:(i + 1) * d]) for i in range(d))
    vol = _classify([np.sqrt(_det2(g))])[0]
    # G^{ab} = sum_i e_i^a e_i^b, one object for G^{ab} and G^{ba}
    upper = [(a, b) for b in range(d) for a in range(b + 1)]
    upper = dict(zip(upper, _classify([sum(row[a] * row[b] for row in e)
                                       for a, b in upper])))
    G = tuple(tuple(upper[min(a, b), max(a, b)] for b in range(d)) for a in range(d))
    div = [0.0] * d
    for a in range(d):
        for b in range(d):
            flux = vol * G[a][b] if np.any(G[a][b]) else 0.0
            if isinstance(flux, np.ndarray) and not _constant_along(flux, a):
                div[b] = div[b] + grid.deriv(flux, a)
    return FrameField(e=e, vol=vol, G=G, B=tuple(_classify([x / vol for x in div])),
                      metric=metric, grid=grid)


def integrate(frame: FrameField, f: np.ndarray) -> float:
    """Integral of a per-node scalar against the frame's volume element, on
    the frame's grid.

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
            return exact_sum(terms) * frame.grid.cell_volume
        except OverflowError:
            # fewer than 2**30 terms, each below 2**1024, sum below 2**1023
            # once scaled by 2**-31; scaled back, a product beyond the float
            # range is inf
            return exact_sum(terms * 2.0**-31) * frame.grid.cell_volume * 2.0**31
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


def laplace_beltrami(frame: FrameField, values: np.ndarray, floor: float = 0.0,
                     pairs=None) -> tuple:
    """``([d_a V], G^{ab} d_a d_b V + B^b d_b V)`` of a field on the frame's
    grid, with or without trailing components, from ``pairs``: ``deriv12``
    per axis, taken here unless given.  Each d_a^2 V is summed in as it is
    taken, so none is kept; d_0 d_1 V is a ``deriv`` of d_0 V, taken only
    when G^{01} is not 0.0, and a B^b term only when B^b is not
    (``FrameField.lb_terms``)."""
    grid = frame.grid
    mixed, drift = frame.lb_terms
    tail = (None,) * (np.ndim(values) - grid.dims)
    own = pairs is None  # then each d_a^2 V is ours to overwrite
    if own:
        pairs = (grid.deriv12(values, a, floor) for a in range(grid.dims))
    firsts = []
    for a, (d, d2) in enumerate(pairs):
        term = np.multiply(_per_node(frame.G[a][a], tail), d2, out=d2 if own else None)
        out = np.add(out, term, out=out) if a else term
        firsts.append(d)
    if mixed:
        out += (2.0 * _per_node(frame.G[0][1], tail)) * grid.deriv(firsts[0], 1, floor)
    for b in drift:
        out += _per_node(frame.B[b], tail) * firsts[b]
    return firsts, out
