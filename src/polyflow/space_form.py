"""Exact geometry of constant-curvature targets.

Three models of the simply connected space form ``N(c)`` are supported, all
represented through an ambient vector space so that the Levi-Civita
connection is "differentiate in the ambient, then project":

* ``Flat`` (c = 0): Euclidean space R^n itself.
* ``Sphere`` (c > 0): the sphere of radius 1/sqrt(c) in R^(n+1), i.e. the
  points with <x, x> = 1/c in the Euclidean form.
* ``Hyperboloid`` (c < 0): the upper sheet <x, x>_L = 1/c, x0 > 0 in
  Minkowski space R^(n,1), where <u, v>_L = -u0*v0 + sum_i ui*vi.

Points and tangent vectors are plain ``numpy`` arrays whose last axis holds
the ambient coordinates; every function broadcasts over leading axes, so a
whole grid of points can be processed in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .domain_grid import real_number, whole_number
from .errors import DegeneratePoint

__all__ = [
    "Model",
    "SpaceFormSpec",
    "ambient_form",
    "project_point",
    "project_tangent",
    "exp_map",
    "curvature_op",
    "norm",
]


class Model(str, Enum):
    FLAT = "Flat"
    SPHERE = "Sphere"
    HYPERBOLOID = "Hyperboloid"


@dataclass(frozen=True)
class SpaceFormSpec:
    """Target space form: curvature ``c`` and dimension ``n``.

    The model is forced by the sign of ``c``; ``ambient_dim`` is ``n`` for
    the flat model and ``n + 1`` otherwise.  ``c`` must be a real number,
    stored as a float (a bool or a string is a ValueError), and ``n`` a whole
    number (2.0 is stored as 2; 2.5 is a ValueError, never truncated).
    """

    c: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "c", real_number(self.c, "c"))
        object.__setattr__(self, "n", whole_number(self.n, "n"))
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not np.isfinite(self.c):
            raise ValueError("curvature must be finite")

    @cached_property
    def model(self) -> Model:
        if self.c == 0.0:
            return Model.FLAT
        return Model.SPHERE if self.c > 0.0 else Model.HYPERBOLOID

    @property
    def ambient_dim(self) -> int:
        return self.n if self.c == 0.0 else self.n + 1


def ambient_form(spec: SpaceFormSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ambient bilinear form from one product pass p = u v: Euclidean
    0.0 + p0 + ... + pn, numpy's own sum order for < 8 terms, or Minkowski
    for c < 0, p1 + ... + pn - p0 in order.  On tangent vectors it is the
    fiber metric h, positive definite on the tangent spaces of every model."""
    p = u * v
    m = p.shape[-1]
    if spec.model is Model.HYPERBOLOID:
        dot = p[..., 1] + p[..., 2] if m > 2 else p[..., 1].copy()
        for i in range(3, m):
            dot += p[..., i]
        dot -= p[..., 0]
        return dot
    dot = p[..., 0] + 0.0
    for i in range(1, m):
        dot += p[..., i]
    return dot


def project_point(spec: SpaceFormSpec, x: np.ndarray) -> np.ndarray:
    """Radially rescale ``x`` onto the model manifold.

    Flat returns ``x`` unchanged.  On the quadric models the scaling factor
    is 1/sqrt(|c| * |Q(x)|) with Q the ambient quadratic form, which lands
    exactly on Q = 1/c.  Raises :class:`DegeneratePoint` when the quadratic
    form of ``x`` has no valid rescaling (null or wrong-signature input,
    or x0 <= 0 on the hyperboloid).
    """
    x = np.asarray(x, dtype=float)
    if spec.model is Model.FLAT:
        return x
    q = ambient_form(spec, x, x)
    if spec.model is Model.SPHERE:
        if (q <= 0.0).any():
            raise DegeneratePoint("cannot project a null vector onto the sphere")
    else:
        if (q >= 0.0).any() or (x[..., 0] <= 0.0).any():
            raise DegeneratePoint(
                "hyperboloid projection needs <x,x>_L < 0 and x0 > 0"
            )
    scale = 1.0 / np.sqrt(abs(spec.c) * np.abs(q))
    return x * scale[..., None]


def project_tangent(spec: SpaceFormSpec, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``v`` onto the tangent space at ``x``."""
    if spec.model is Model.FLAT:
        return np.asarray(v, dtype=float)
    normal = spec.c * ambient_form(spec, x, v)[..., None] * x
    return np.subtract(v, normal, out=normal)


def norm(spec: SpaceFormSpec, v: np.ndarray) -> np.ndarray:
    """Pointwise norm |v| = sqrt(h(v, v))."""
    return np.sqrt(np.maximum(ambient_form(spec, v, v), 0.0))


def _stable_ratio(fn, z: np.ndarray) -> np.ndarray:
    # fn(z)/z with the z -> 0 limit patched to 1 (both sin and sinh).
    small = np.abs(z) < 1e-12
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0, fn(safe) / safe)


def exp_map(spec: SpaceFormSpec, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Geodesic exponential: follow the geodesic from ``x`` with velocity ``v``.

    Closed forms: straight line (flat), great-circle rotation (sphere),
    hyperbolic rotation (hyperboloid).  The result is re-projected onto the
    model so the constraint holds to machine precision even for large ``v``.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if spec.model is Model.FLAT:
        return x + v
    rho = math.sqrt(abs(spec.c)) * norm(spec, v)
    if spec.model is Model.SPHERE:
        out = np.cos(rho)[..., None] * x + _stable_ratio(np.sin, rho)[..., None] * v
    else:
        out = np.cosh(rho)[..., None] * x + _stable_ratio(np.sinh, rho)[..., None] * v
    return project_point(spec, out)


def curvature_op(spec: SpaceFormSpec, X: np.ndarray, Y: np.ndarray,
                 Z: np.ndarray) -> np.ndarray:
    """Constant-curvature tensor R(X, Y)Z = c * (h(Y,Z) X - h(X,Z) Y)."""
    if spec.c == 0.0:
        return np.zeros(np.broadcast(X, Y, Z).shape)
    out = ambient_form(spec, Y, Z)[..., None] * X
    out -= ambient_form(spec, X, Z)[..., None] * Y
    out *= spec.c
    return out


def constraint_residual(spec: SpaceFormSpec, x: np.ndarray) -> np.ndarray:
    """Absolute deviation from the model constraint (0 for flat)."""
    if spec.model is Model.FLAT:
        return np.zeros(np.asarray(x).shape[:-1])
    return np.abs(ambient_form(spec, x, x) - 1.0 / spec.c)
