"""Descriptor-driven orchestration and simulation of shared gNB
components across RAN slice subnets."""

from .descriptors import (
    DescriptorSet,
    ServiceType,
    Snssai,
    parse_descriptor_set,
    serialize_descriptor_set,
    validate,
)
from .orchestrator import (
    Direction,
    Orchestrator,
    ScaleTarget,
    ScalingEvent,
    ScalingThresholds,
    evaluate_scaling_policy,
)
from .resources import (
    CapacityBudget,
    ResourceModelParams,
    SliceLoad,
    calibrate_params,
    cu_vcpu_consumption,
    du_vcpu_consumption,
    vnic_mean_wait,
)
from .sim import DemandProfile, SimConfig, SimTrace, compare_scenarios, export, run
from .topology import (
    Drb,
    DrbQos,
    Scenario,
    build_instance_graph,
    slice_awareness_required,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityBudget",
    "DemandProfile",
    "DescriptorSet",
    "Direction",
    "Drb",
    "DrbQos",
    "Orchestrator",
    "ResourceModelParams",
    "ScaleTarget",
    "Scenario",
    "ScalingEvent",
    "ScalingThresholds",
    "ServiceType",
    "SimConfig",
    "SimTrace",
    "SliceLoad",
    "Snssai",
    "build_instance_graph",
    "calibrate_params",
    "compare_scenarios",
    "cu_vcpu_consumption",
    "du_vcpu_consumption",
    "evaluate_scaling_policy",
    "export",
    "parse_descriptor_set",
    "run",
    "serialize_descriptor_set",
    "slice_awareness_required",
    "validate",
    "vnic_mean_wait",
    "__version__",
]
