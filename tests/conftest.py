import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import polyflow as pf
from polyflow import space_form as sf
from polyflow.errors import DegeneratePoint


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def load_summary(source):
    """Parse JSON strictly: NaN, Infinity and -Infinity raise ValueError.

    ``source`` is a ``Path`` to a file (a summary) or the JSON text itself
    (a process's output).
    """
    text = source.read_text() if isinstance(source, Path) else source
    return json.loads(text, parse_constant=_not_json)


@pytest.fixture(scope="session")
def circle_grid():
    return pf.build_grid(pf.GridSpec(1, (256,), (2 * np.pi,), "Spectral"))


@pytest.fixture(scope="session")
def torus_grid():
    return pf.build_grid(
        pf.GridSpec(2, (64, 64), (2 * np.pi, 2 * np.pi), "Spectral")
    )


@pytest.fixture(scope="session")
def flat_circle(circle_grid):
    spec = pf.SpaceFormSpec(0.0, 2)
    return pf.builtin_map("Circle", {"r": 1.0}, circle_grid, spec)


def builtin_fixture_set():
    """(name, params, grid spec tuple, target) for every built-in default."""
    two_pi = 2 * np.pi
    return [
        ("Circle", {"r": 1.0}, (1, (256,), (two_pi,)), pf.SpaceFormSpec(0.0, 2)),
        (
            "PerturbedGeodesicH2",
            {"amplitude": 0.05, "k": 3},
            (1, (256,), (two_pi,)),
            pf.SpaceFormSpec(-1.0, 2),
        ),
        ("GreatCircleS2", {}, (1, (256,), (two_pi,)), pf.SpaceFormSpec(1.0, 2)),
        (
            "TorusCliffordLike",
            {},
            (2, (64, 64), (two_pi, two_pi)),
            pf.SpaceFormSpec(1.0, 3),
        ),
        (
            "TorusCliffordLike",
            {},
            (2, (64, 64), (two_pi, two_pi)),
            pf.SpaceFormSpec(0.0, 4),
        ),
        (
            "TorusCliffordLike",
            {},
            (2, (64, 64), (two_pi, two_pi)),
            pf.SpaceFormSpec(-1.0, 3),
        ),
        (
            "GraphSurface",
            {},
            (2, (64, 64), (two_pi, two_pi)),
            pf.SpaceFormSpec(0.0, 5),
        ),
    ]


def build_fixture(name, params, grid_args, target, differentiation="Spectral"):
    dims, sizes, lengths = grid_args
    grid = pf.build_grid(pf.GridSpec(dims, sizes, lengths, differentiation))
    return pf.builtin_map(name, params, grid, target)


def frame_for(phi, induced=True):
    if induced:
        metric = pf.induced_metric(phi)
    else:
        metric = pf.identity_metric(phi.grid)
    return pf.orthonormal_frame(phi.grid, metric)


def chain_for(phi, induced=True):
    return pf.TensionChain(phi, frame_for(phi, induced))


def tangency_residual(phi, V) -> float:
    """max |h(phi, V)| over the grid: a section V along phi is tangent to the
    model (the sphere or the hyperboloid) when h(phi, V) = 0; every vector
    is tangent to a flat target."""
    if phi.spec.model is pf.Model.FLAT:
        return 0.0
    return float(np.max(np.abs(sf.ambient_form(phi.spec, phi.values, V))))


def components_outermost(V) -> bool:
    """The layout of every section along a map: its shape is ``grid.shape +
    (m,)`` and its m components are the outermost memory axis, each one a
    C-ordered grid plane."""
    return np.moveaxis(V, -1, 0).flags.c_contiguous


def record_derivs(monkeypatch) -> list:
    """The backend name of every derivative ``DomainGrid`` takes from now on,
    one entry per derivative array: a spectral ``deriv12`` records two from
    its one transform, and a stencil ``deriv12`` its two ``deriv`` calls."""
    kinds, deriv, spectral = [], pf.DomainGrid.deriv, pf.DomainGrid._spectral

    def recording(self, *args, **kwargs):
        if self.spec.differentiation is not pf.Differentiation.SPECTRAL:
            kinds.append(self.spec.differentiation.value)
        return deriv(self, *args, **kwargs)

    def recording_spectral(self, *args, **kwargs):
        out = spectral(self, *args, **kwargs)
        kinds.extend([self.spec.differentiation.value] * len(out))
        return out

    monkeypatch.setattr(pf.DomainGrid, "deriv", recording)
    monkeypatch.setattr(pf.DomainGrid, "_spectral", recording_spectral)
    return kinds


def fail_third_trial(monkeypatch):
    """From now on the third ``exp_map`` call, the third Armijo trial's,
    raises DegeneratePoint, as ``project_point`` does for a point with no
    rescaling onto the model."""
    calls, exp_map = itertools.count(1), sf.exp_map

    def failing(spec, x, v):
        if next(calls) == 3:
            raise DegeneratePoint("no rescaling onto the model")
        return exp_map(spec, x, v)

    monkeypatch.setattr(sf, "exp_map", failing)


SIN_R_BI = 1.0 / np.sqrt(2.0)  # k-tension of an S^2 circle vanishes iff
SIN_R_TRI = 1.0 / np.sqrt(3.0)  # kappa^2 = (k - 1) c, i.e. sin^2 r = 1/k


def static_probe(r, c, n=256):
    """The chain and probe verdict of the circle of radius r in the 2-d
    space form of curvature c, on its induced frame (n nodes)."""
    grid = pf.build_grid(pf.GridSpec(1, (n,), (2 * np.pi,)))
    phi = pf.builtin_map("Circle", {"r": r}, grid, pf.SpaceFormSpec(c, 2))
    frame = pf.orthonormal_frame(grid, pf.induced_metric(phi))
    chain = pf.TensionChain(phi, frame)
    return chain, pf.theorem_probe(chain, "running")


def frame_arrays(frame):
    """The frame's coefficients as the stacked arrays ``e[..., i, a]``,
    ``G[..., a, b]``, ``B[..., b]`` and ``vol``, each float broadcast over
    the grid."""
    shape = frame.grid.shape

    def stack(coeffs):
        return np.stack([np.broadcast_to(c, shape) for c in coeffs], -1)

    return SimpleNamespace(e=np.stack([stack(row) for row in frame.e], -2),
                           G=np.stack([stack(row) for row in frame.G], -2),
                           B=stack(frame.B), vol=np.broadcast_to(frame.vol, shape))


def warped_metric(grid):
    """Prescribed non-flat metric: its frame has non-zero B terms."""
    g = np.zeros(grid.shape + (grid.dims, grid.dims))
    u, v = grid.coords
    g[..., 0, 0] = 1.0 + 0.3 * np.sin(u) ** 2
    g[..., 1, 1] = 1.0 + 0.2 * np.cos(v)
    g[..., 0, 1] = g[..., 1, 0] = 0.1 * np.sin(u + v)
    return pf.prescribed_metric(grid, g)


def reference_boost_frame(x, c):
    """E_i = e_i + (x_i / r) (e_0 + x / r) / (1 + x_0 / r), i = 1..n, with
    r = 1 / sqrt(-c): one array per frame vector."""
    r = 1.0 / np.sqrt(-c)
    dim = x.shape[-1]
    w = np.eye(dim)[0] + x / r
    return [(x[..., i] / r / (1.0 + x[..., 0] / r))[..., None] * w + np.eye(dim)[i]
            for i in range(1, dim)]
