"""Energy ladder and norms: E, E2, E3, Etilde4 and L^p tension norms.

Conventions: E = (1/2) Int |dphi|^2, E2 = (1/2) Int |tau|^2,
E3 = (1/2) Int |nabla tau|^2, Etilde4 = (1/2) Int |Delta tau|^2.  The
fourth-rung functional reported here is the iterated-Laplacian part only,
which is a lower bound for the full fourth energy (the omitted exterior
derivative term is a nonnegative integral).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .pullback import TensionChain

__all__ = ["EnergyReport", "energy_report"]


@dataclass
class EnergyReport:
    E: float
    E2: float
    E3: float
    Etilde4: float
    Lp_tension: dict = field(default_factory=dict)
    sup_tau: float = 0.0
    sup_tau3: float = 0.0
    mean_curvature_sup: float = 0.0
    volume: float = 0.0

    def to_dict(self) -> dict:
        out = asdict(self)
        out["Lp_tension"] = {str(p): v for p, v in out["Lp_tension"].items()}
        return out


def energy_report(chain: TensionChain, p_list=(2.0, 4.0)) -> EnergyReport:
    """Evaluate the full energy ladder and the requested L^p tension norms
    of the state whose tension chain is ``chain``."""
    report = EnergyReport(
        E=chain.energy(1),
        E2=chain.energy(2),
        E3=chain.energy(3),
        Etilde4=chain.etilde4,
        sup_tau=chain.sup_norm(1),
        sup_tau3=chain.sup_norm(3),
        volume=chain.frame.volume,
    )
    report.mean_curvature_sup = report.sup_tau / chain.phi.grid.dims
    for p in p_list:
        report.Lp_tension[float(p)] = chain.tension_lp(p)
    return report
