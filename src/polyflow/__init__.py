"""Discrete variational calculus for polyharmonic maps into space forms.

Computes tension, bitension and tritension fields of maps from periodic
domains into constant-curvature targets, evaluates the associated energy
ladder, verifies the classical variational and pointwise identities
numerically, and runs polyharmonic gradient flows with line search.
"""

from .domain_grid import (
    Differentiation,
    DomainGrid,
    FrameField,
    GridSpec,
    MetricField,
    MetricMode,
    build_grid,
    identity_metric,
    induced_metric,
    integrate,
    orthonormal_frame,
    prescribed_metric,
)
from .energy import EnergyReport, energy_report
from .examples import builtin_map, example_catalog
from .flow import (
    FlowConfig,
    FlowKind,
    FlowTrace,
    MetricPolicy,
    ProbeVerdict,
    flow_step,
    run_flow,
    theorem_probe,
)
from .pullback import (
    MapField,
    TensionChain,
    tension,
    tritension_space_form,
    vary,
)
from .space_form import (
    Model,
    SpaceFormSpec,
    ambient_form,
    curvature_op,
    exp_map,
    project_point,
    project_tangent,
)
from .verify import (
    AuditReport,
    CutoffField,
    caccioppoli_audit,
    cutoff,
    first_variation_residual,
    pointwise_identity_audit,
    random_tangent_section,
    tension_variation_residual,
)

__version__ = "0.1.0"
