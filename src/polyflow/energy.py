"""Energy ladder and norms: E, E2, E3, Etilde4 and L^p tension norms.

Conventions: E = (1/2) Int |dphi|^2, E2 = (1/2) Int |tau|^2,
E3 = (1/2) Int |nabla tau|^2, Etilde4 = (1/2) Int |Delta tau|^2.  The
fourth-rung functional reported here is the iterated-Laplacian part only,
which is a lower bound for the full fourth energy (the omitted exterior
derivative term is a nonnegative integral).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .domain_grid import FrameField, integrate
from .pullback import MapField, TensionChain

__all__ = ["EnergyReport", "energy_report", "energy_k"]


@dataclass
class EnergyReport:
    E: float
    E2: float
    E3: float
    Etilde4: float
    Lp_tension: dict = field(default_factory=dict)
    Lp_laplacian: dict = field(default_factory=dict)
    sup_tau: float = 0.0
    sup_tau3: float = 0.0
    mean_curvature_sup: float = 0.0
    volume: float = 0.0

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("Lp_tension", "Lp_laplacian"):
            out[key] = {str(p): v for p, v in out[key].items()}
        return out


def energy_k(phi: MapField, frame: FrameField, k: int) -> float:
    """k-th energy of the ladder for k in {1, 2, 3}, over the given frame."""
    return TensionChain(phi, frame).energy(k)


def energy_report(
    phi: MapField,
    frame: FrameField,
    p_list=(2.0, 4.0),
    laplacian_p_list=(),
    chain: TensionChain = None,
) -> EnergyReport:
    """Evaluate the full energy ladder and the requested L^p tension norms.

    ``chain`` is the state's tension chain when the caller already has one.
    """
    grid = phi.grid
    if chain is None:
        chain = TensionChain(phi, frame)
    report = EnergyReport(
        E=chain.energy(1),
        E2=chain.energy(2),
        E3=chain.energy(3),
        Etilde4=chain.etilde4,
        sup_tau=chain.sup_norm(1),
        sup_tau3=chain.sup_norm(3),
        volume=frame.volume,
    )
    report.mean_curvature_sup = report.sup_tau / grid.dims
    for p in p_list:
        report.Lp_tension[float(p)] = chain.tension_lp(p)
    for p in laplacian_p_list:
        report.Lp_laplacian[float(p)] = integrate(grid, frame, chain.lap_norm ** float(p))
    return report
