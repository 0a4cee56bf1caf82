"""Client (moving object) tier: the RayTrace filter and the uncertainty model."""

from repro.client.raytrace import RayTraceFilter, RayTraceConfig
from repro.client.state import ObjectState, CoordinatorResponse
from repro.client.uncertainty import (
    NormalToleranceModel,
    UnsatisfiableTolerancePolicy,
)

__all__ = [
    "RayTraceFilter",
    "RayTraceConfig",
    "ObjectState",
    "CoordinatorResponse",
    "NormalToleranceModel",
    "UnsatisfiableTolerancePolicy",
]
