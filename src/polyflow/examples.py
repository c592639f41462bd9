"""Built-in map families used as fixtures and experiment seeds.

Every family is deterministic in its parameters.  Angles are scaled so one
period of each grid axis traverses the family once; all values are
projected onto the target model at the end, so the model constraint holds
to machine precision.
"""

from __future__ import annotations

import numpy as np

from . import space_form as sf
from .domain_grid import DomainGrid, real_number, whole_number
from .errors import BadParams, UnknownExample
from .pullback import MapField

__all__ = ["builtin_map", "example_catalog"]


def _product_torus(u, v, r1, r2) -> list:
    """The four components of the product torus (r1 e^{iu}, r2 e^{iv});
    radii that are not positive are a BadParams."""
    if min(r1, r2) <= 0.0:
        raise BadParams("torus radii must be positive")
    return [r1 * np.cos(u), r1 * np.sin(u), r2 * np.cos(v), r2 * np.sin(v)]


def _circle(params, grid, spec):
    r = params["r"]
    if r <= 0.0:
        raise BadParams("Circle radius must be positive")
    if spec.n != 2:
        raise BadParams("Circle lives in a 2-dimensional target (n = 2)")
    (theta,) = grid.angles
    if spec.model is sf.Model.FLAT:
        values = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    elif spec.model is sf.Model.SPHERE:
        R = 1.0 / np.sqrt(spec.c)
        t0 = r / R  # geodesic radius as colatitude
        if not 0.0 < t0 < np.pi:
            raise BadParams("spherical circle needs 0 < r/R < pi")
        values = R * np.stack(
            [
                np.sin(t0) * np.cos(theta),
                np.sin(t0) * np.sin(theta),
                np.full(grid.shape, np.cos(t0)),
            ],
            axis=-1,
        )
    else:
        R = 1.0 / np.sqrt(-spec.c)
        t0 = r / R
        values = R * np.stack(
            [
                np.full(grid.shape, np.cosh(t0)),
                np.sinh(t0) * np.cos(theta),
                np.sinh(t0) * np.sin(theta),
            ],
            axis=-1,
        )
    return values


def _perturbed_geodesic_h2(params, grid, spec):
    # A closed nonconstant curve in hyperbolic space is never a geodesic,
    # so the unperturbed member of this family is the point geodesic: the
    # map oscillates along a fixed geodesic line through the base point.
    amplitude, k = params["amplitude"], whole_number(params["k"], "k")
    R = 1.0 / np.sqrt(-spec.c)
    (theta,) = grid.angles
    base = np.zeros(grid.shape + (spec.ambient_dim,))
    base[..., 0] = R
    direction = np.zeros_like(base)
    direction[..., spec.ambient_dim - 1] = 1.0
    return sf.exp_map(
        spec, base, amplitude * np.sin(k * theta)[..., None] * direction
    )


def _great_circle_s2(params, grid, spec):
    if spec.n != 2:
        raise BadParams("GreatCircleS2 needs a 2-sphere target")
    winding = whole_number(params["winding"], "winding")
    if winding == 0:
        raise BadParams("winding must be nonzero")
    R = 1.0 / np.sqrt(spec.c)
    (theta,) = grid.angles
    return R * np.stack(
        [
            np.cos(winding * theta),
            np.sin(winding * theta),
            np.zeros(grid.shape),
        ],
        axis=-1,
    )


def _torus_clifford_like(params, grid, spec):
    u, v = grid.angles
    if spec.model is sf.Model.FLAT:
        if spec.n != 4:
            raise BadParams("flat product torus lives in R^4 (n = 4)")
        return np.stack(_product_torus(u, v, params["r1"], params["r2"]), axis=-1)
    if spec.model is sf.Model.SPHERE:
        if spec.n != 3:
            raise BadParams("Clifford-type torus lives in the 3-sphere (n = 3)")
        alpha = params["alpha"]
        if not 0.0 < alpha < np.pi / 2.0:
            raise BadParams("alpha must lie in (0, pi/2)")
        R = 1.0 / np.sqrt(spec.c)
        return R * np.stack(_product_torus(u, v, np.cos(alpha), np.sin(alpha)), axis=-1)
    # Hyperboloid: rotational tube torus, sweeping a circle of geodesic
    # radius rho around the hyperbolic circle of geodesic radius a.  The
    # u-speed A(v) = cosh(rho) sinh(a) + sinh(rho) cos(v) cosh(a) stays
    # positive iff a > rho.
    if spec.n != 3:
        raise BadParams("hyperbolic torus lives in hyperbolic 3-space (n = 3)")
    R = 1.0 / np.sqrt(-spec.c)
    a, rho = params["a"] / R, params["rho"] / R
    if not 0.0 < rho < a:
        raise BadParams("need 0 < rho < a so the tube torus immerses")
    radial = np.cosh(rho) * np.sinh(a) + np.sinh(rho) * np.cos(v) * np.cosh(a)
    return R * np.stack(
        [
            np.cosh(rho) * np.cosh(a) + np.sinh(rho) * np.cos(v) * np.sinh(a),
            radial * np.cos(u),
            radial * np.sin(u),
            np.sinh(rho) * np.sin(v) * np.ones_like(u),
        ],
        axis=-1,
    )


def _graph_surface(params, grid, spec):
    if spec.n != 5:
        raise BadParams("GraphSurface is a graph over the flat torus in R^5 (n = 5)")
    amplitude = params["amplitude"]
    ku, kv = whole_number(params["ku"], "ku"), whole_number(params["kv"], "kv")
    u, v = grid.angles
    torus = _product_torus(u, v, params["r1"], params["r2"])
    return np.stack(torus + [amplitude * np.sin(ku * u) * np.cos(kv * v)], axis=-1)


_FAMILIES = {
    "Circle": {
        "builder": _circle,
        "defaults": {"r": 1.0},
        "dims": 1,
        "models": ["Flat", "Sphere", "Hyperboloid"],
        "describe": "round circle of (geodesic) radius r, one loop per period",
    },
    "PerturbedGeodesicH2": {
        "builder": _perturbed_geodesic_h2,
        "defaults": {"amplitude": 0.05, "k": 3},
        "dims": 1,
        "models": ["Hyperboloid"],
        "describe": "point geodesic in the hyperbolic plane plus an "
        "amplitude*sin(k s) push along a fixed geodesic line; "
        "amplitude 0 is the constant map",
    },
    "GreatCircleS2": {
        "builder": _great_circle_s2,
        "defaults": {"winding": 1},
        "dims": 1,
        "models": ["Sphere"],
        "describe": "equator of the 2-sphere traversed `winding` times",
    },
    "TorusCliffordLike": {
        "builder": _torus_clifford_like,
        "defaults": {"r1": 1.0, "r2": 0.7, "alpha": np.pi / 5.0, "a": 1.0,
                     "rho": 0.4},
        "dims": 2,
        "models": ["Flat", "Sphere", "Hyperboloid"],
        "describe": "doubly periodic torus: product torus in R^4 (flat), "
        "Clifford-type torus in the 3-sphere (alpha), or a rotational "
        "tube torus in hyperbolic 3-space (a, rho)",
    },
    "GraphSurface": {
        "builder": _graph_surface,
        "defaults": {"r1": 1.0, "r2": 0.7, "amplitude": 0.3, "ku": 1, "kv": 1},
        "dims": 2,
        "models": ["Flat"],
        "describe": "graph of amplitude*sin(ku u)*cos(kv v) over the flat "
        "product torus, in R^5",
    },
}


def example_catalog() -> dict:
    """Name -> {description, dims, models, params with defaults}."""
    return {
        name: {
            "description": fam["describe"],
            "dims": fam["dims"],
            "models": list(fam["models"]),
            "params": dict(fam["defaults"]),
        }
        for name, fam in _FAMILIES.items()
    }


def builtin_map(name: str, params: dict, grid: DomainGrid, spec) -> MapField:
    """Instantiate a built-in family on a grid.

    Unknown family names raise :class:`UnknownExample`; a grid or target
    outside the family's domain, and unknown or invalid parameters, raise
    :class:`BadParams`.  Defaults fill missing parameters; a parameter whose
    default is a float must be a real number (not a bool or a string).
    """
    if name not in _FAMILIES:
        raise UnknownExample(
            f"unknown example {name!r}; available: {sorted(_FAMILIES)}"
        )
    fam = _FAMILIES[name]
    if grid.dims != fam["dims"]:
        raise BadParams(f"{name} needs a {fam['dims']}-d grid, got dims={grid.dims}")
    if spec.model.value not in fam["models"]:
        raise BadParams(f"{name} needs a target in {fam['models']}, "
                        f"got {spec.model.value}")
    params = dict(params or {})
    unknown = set(params) - set(fam["defaults"])
    if unknown:
        raise BadParams(f"{name} does not take parameters {sorted(unknown)}")
    full = {**fam["defaults"], **params}
    try:
        for key, default in fam["defaults"].items():
            if isinstance(default, float):
                full[key] = real_number(full[key], key)
        values = fam["builder"](full, grid, spec)
    except (TypeError, ValueError) as exc:
        raise BadParams(f"bad {name} parameters: {exc}") from exc
    values = sf.project_point(spec, values)
    return MapField(values=values, grid=grid, spec=spec)
