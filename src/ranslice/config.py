"""Simulation configuration files.

A config file is a YAML mapping:

    ticks: 100
    total_prbs: 273
    seed: 7                       # optional
    scenario: s4                  # optional, CLI --scenario overrides
    budget: {vcpu_capacity: 1.0, per_slice_cap: 0.9}
    resource: {c0: 0.05, k: 0.0011, beta: 0.35, cu_scale: 0.3,
               vnic_mu: 100000.0, pkt_per_prb: 125.0}
    scaling: {hi: 0.8, lo: 0.3, window: 5, cooldown: 3}
    admission: {vnic_delay_cap_ms: 2.0}
    profiles:
      - snssai: {service_type: eMBB}
        drb_arrival_rate: 0.5
        mean_holding: 20          # "inf" for never-departing DRBs
        initial_drbs: 0
        qos: {throughput_mbps: 40.0, latency_ms: 20.0, reliability: 0.99}
        mcs: [{modulation_order: 6, code_rate: 0.75, p: 1.0}]
        seed: 1

Errors carry the path of the offending field.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, TypeVar

import yaml

from .descriptors import DescriptorSyntaxError, ServiceType, Snssai, load_yaml, parse_snssai
from .orchestrator import ScalingThresholds
from .resources import CapacityBudget, ResourceModelParams, SliceLoad
from .sim import ConfigError, DemandProfile, McsAtom, SimConfig
from .topology import DrbQos, Scenario

T = TypeVar("T")


def _need_map(obj: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise ConfigError(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _num(m: Mapping[str, Any], key: str, path: str, default: float | None = None) -> float:
    v = m.get(key, default)
    if v is None:
        raise ConfigError(f"{path}.{key}", "missing required field")
    if isinstance(v, str) and v.lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", "expected a number")
    return float(v)


def _int(m: Mapping[str, Any], key: str, path: str, default: int | None = None) -> int:
    v = m.get(key, default)
    if v is None:
        raise ConfigError(f"{path}.{key}", "missing required field")
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", "expected an integer")
    return v


def _made(path: str, cls: type[T], **fields: Any) -> T:
    """``cls(**fields)``; a ValueError it raises is a ConfigError at ``path``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _snssai(obj: Any, path: str) -> Snssai:
    try:
        return parse_snssai(obj, "config", "")
    except DescriptorSyntaxError as exc:
        raise ConfigError(path, exc.message) from exc


def resource_params_from_dict(m: Mapping[str, Any], path: str = "resource") -> ResourceModelParams:
    defaults = ResourceModelParams()
    return _made(path, ResourceModelParams,
                 c0=_num(m, "c0", path, defaults.c0),
                 k=_num(m, "k", path, defaults.k),
                 beta=_num(m, "beta", path, defaults.beta),
                 cu_scale=_num(m, "cu_scale", path, defaults.cu_scale),
                 vnic_service_rate=_num(m, "vnic_mu", path, defaults.vnic_service_rate),
                 pkt_per_prb=_num(m, "pkt_per_prb", path, defaults.pkt_per_prb))


def resource_params_to_dict(p: ResourceModelParams) -> dict[str, float]:
    return {"c0": p.c0, "k": p.k, "beta": p.beta, "cu_scale": p.cu_scale,
            "vnic_mu": p.vnic_service_rate, "pkt_per_prb": p.pkt_per_prb}


def _profile_from_dict(m: Mapping[str, Any], path: str) -> DemandProfile:
    qos_path = f"{path}.qos"
    qos_map = _need_map(m.get("qos"), qos_path)
    qos = _made(qos_path, DrbQos,
                throughput_mbps=_num(qos_map, "throughput_mbps", qos_path),
                latency_ms=_num(qos_map, "latency_ms", qos_path),
                reliability=_num(qos_map, "reliability", qos_path))
    atoms = []
    raw_mcs = m.get("mcs")
    if not isinstance(raw_mcs, list) or not raw_mcs:
        raise ConfigError(f"{path}.mcs", "expected a non-empty list")
    for i, raw in enumerate(raw_mcs):
        where = f"{path}.mcs[{i}]"
        am = _need_map(raw, where)
        atoms.append(_made(where, McsAtom,
                           modulation_order=_int(am, "modulation_order", where),
                           code_rate=_num(am, "code_rate", where),
                           p=_num(am, "p", where, default=1.0)))
    return _made(path, DemandProfile,
                 snssai=_snssai(m.get("snssai"), f"{path}.snssai"),
                 drb_arrival_rate=_num(m, "drb_arrival_rate", path),
                 qos=qos,
                 mean_holding=_num(m, "mean_holding", path),
                 mcs_distribution=tuple(atoms),
                 seed=_int(m, "seed", path, default=0),
                 initial_drbs=_int(m, "initial_drbs", path, default=0))


def sim_config_from_dict(raw: Mapping[str, Any]) -> SimConfig:
    root = _need_map(raw, "config")
    budget_map = _need_map(root.get("budget", {}), "budget")
    budget = _made("budget", CapacityBudget,
                   vcpu_capacity=_num(budget_map, "vcpu_capacity", "budget", default=1.0),
                   per_slice_cap=_num(budget_map, "per_slice_cap", "budget", default=0.9))
    params = resource_params_from_dict(_need_map(root.get("resource", {}), "resource"))
    scaling_map = _need_map(root.get("scaling", {}), "scaling")
    defaults = ScalingThresholds()
    thresholds = _made("scaling", ScalingThresholds,
                       hi=_num(scaling_map, "hi", "scaling", defaults.hi),
                       lo=_num(scaling_map, "lo", "scaling", defaults.lo),
                       window=_int(scaling_map, "window", "scaling", defaults.window),
                       cooldown=_int(scaling_map, "cooldown", "scaling", defaults.cooldown))
    admission_map = _need_map(root.get("admission", {}), "admission")

    scenario = None
    if root.get("scenario") is not None:
        try:
            scenario = Scenario.from_str(str(root["scenario"]))
        except ValueError as exc:
            raise ConfigError("scenario", str(exc)) from exc

    raw_profiles = root.get("profiles")
    if not isinstance(raw_profiles, list) or not raw_profiles:
        raise ConfigError("profiles", "expected a non-empty list")
    profiles = tuple(_profile_from_dict(_need_map(p, f"profiles[{i}]"), f"profiles[{i}]")
                     for i, p in enumerate(raw_profiles))

    seed = None
    if root.get("seed") is not None:
        seed = _int(root, "seed", "config")

    return SimConfig(
        ticks=_int(root, "ticks", "config"),
        total_prbs=_int(root, "total_prbs", "config"),
        budget=budget,
        params=params,
        thresholds=thresholds,
        profiles=profiles,
        scenario=scenario,
        vnic_delay_cap_ms=_num(admission_map, "vnic_delay_cap_ms", "admission", default=2.0),
        seed=seed,
    )


def read_yaml_file(path: str) -> Any:
    """The YAML document in the file at ``path``. A file that is not
    UTF-8 text or not valid YAML is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return load_yaml(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(path, f"not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(path, f"invalid YAML: {exc}") from exc


def load_sim_config(path: str) -> SimConfig:
    raw = read_yaml_file(path)
    if raw is None:
        raise ConfigError(path, "empty configuration file")
    return sim_config_from_dict(raw)


def load_anchors(path: str) -> list[tuple[SliceLoad, float]]:
    """The calibration anchors in the YAML file at ``path``: a non-empty
    list of {snssai, prbs, modulation_order, code_rate, observed}, each
    read as a slice load and its observed vCPU consumption."""
    raw = read_yaml_file(path)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(path, "expected a non-empty YAML list of anchors")
    anchors = []
    for i, entry in enumerate(raw):
        where = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(where, "expected a mapping")
        # the fit does not depend on the slice identity
        snssai = (_snssai(entry["snssai"], f"{where}.snssai") if "snssai" in entry
                  else Snssai(ServiceType.EMBB))
        try:
            load = SliceLoad(
                snssai=snssai,
                prbs=_int(entry, "prbs", where),
                modulation_order=_int(entry, "modulation_order", where),
                code_rate=_num(entry, "code_rate", where),
            )
        except ValueError as exc:
            raise ConfigError(where, f"bad anchor: {exc}") from exc
        anchors.append((load, _num(entry, "observed", where)))
    return anchors
