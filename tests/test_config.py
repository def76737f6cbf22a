from __future__ import annotations

import copy
import math
from pathlib import Path

import pytest
import yaml

from ranslice.config import (
    load_sim_config,
    resource_params_from_dict,
    resource_params_to_dict,
    sim_config_from_dict,
)
from ranslice.orchestrator import ScalingThresholds
from ranslice.resources import CapacityBudget, ResourceModelParams
from ranslice.sim import ConfigError
from ranslice.topology import Scenario

BASE = {
    "ticks": 30,
    "total_prbs": 100,
    "seed": 9,
    "scenario": "s3",
    "budget": {"vcpu_capacity": 2.0, "per_slice_cap": 0.8},
    "resource": {"c0": 0.02, "k": 0.0005, "beta": 0.4, "cu_scale": 0.25,
                 "vnic_mu": 50000.0, "pkt_per_prb": 100.0},
    "scaling": {"hi": 0.85, "lo": 0.2, "window": 4, "cooldown": 2},
    "admission": {"vnic_delay_cap_ms": 1.5},
    "profiles": [
        {"snssai": {"service_type": "mMTC", "subtype": "meters"},
         "drb_arrival_rate": 0.2, "mean_holding": "inf", "initial_drbs": 2,
         "qos": {"throughput_mbps": 1.0, "latency_ms": 100.0, "reliability": 0.9},
         "mcs": [{"modulation_order": 2, "code_rate": 0.3, "p": 1.0}],
         "seed": 4},
    ],
}


def test_full_config_round_trip(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(BASE))
    config = load_sim_config(str(path))
    assert config.ticks == 30
    assert config.seed == 9
    assert config.scenario is Scenario.S3_CU_SHARED
    assert config.budget.vcpu_capacity == 2.0
    assert config.params.beta == 0.4
    assert config.thresholds.window == 4
    assert config.vnic_delay_cap_ms == 1.5
    profile = config.profiles[0]
    assert profile.snssai.key() == "mMTC.meters"
    assert math.isinf(profile.mean_holding)
    assert profile.initial_drbs == 2


def test_sections_default_when_absent():
    raw = {"ticks": 5, "total_prbs": 50, "profiles": BASE["profiles"]}
    config = sim_config_from_dict(raw)
    assert config.budget.vcpu_capacity == 1.0
    assert config.params == ResourceModelParams()
    assert config.thresholds.hi == 0.8
    assert config.scenario is None
    assert config.seed is None


def test_error_paths_carry_field_path():
    bad = dict(BASE, profiles=[dict(BASE["profiles"][0], qos={"throughput_mbps": 1.0})])
    with pytest.raises(ConfigError) as excinfo:
        sim_config_from_dict(bad)
    assert "profiles[0].qos" in str(excinfo.value)

    with pytest.raises(ConfigError) as excinfo:
        sim_config_from_dict(dict(BASE, scenario="s9"))
    assert "scenario" in str(excinfo.value)

    with pytest.raises(ConfigError) as excinfo:
        sim_config_from_dict(dict(BASE, resource={"k": -1.0}))
    assert "resource" in str(excinfo.value)

    with pytest.raises(ConfigError) as excinfo:
        sim_config_from_dict(dict(BASE, profiles=[]))
    assert "profiles" in str(excinfo.value)


@pytest.mark.parametrize("snssai, field", [
    ({"service_type": "broadband"}, "service_type"),
    ({"subtype": "meters"}, "service_type"),
    ({"service_type": "mMTC", "subtype": 7}, "subtype"),
], ids=["unknown-service-type", "missing-service-type", "non-string-subtype"])
def test_bad_snssai_is_a_config_error_at_its_profile(snssai, field):
    profiles = [BASE["profiles"][0], dict(BASE["profiles"][0], snssai=snssai)]
    with pytest.raises(ConfigError) as excinfo:
        sim_config_from_dict(dict(BASE, profiles=profiles))
    assert excinfo.value.path == "profiles[1].snssai"
    assert str(excinfo.value).startswith(f"profiles[1].snssai: {field}: ")


def test_bad_mcs_probability_sum():
    profile = dict(BASE["profiles"][0],
                   mcs=[{"modulation_order": 2, "code_rate": 0.3, "p": 0.5}])
    with pytest.raises(ConfigError):
        sim_config_from_dict(dict(BASE, profiles=[profile]))


def test_resource_params_dict_round_trip():
    params = ResourceModelParams(c0=0.1, k=0.002, beta=0.3, cu_scale=0.4,
                                 vnic_service_rate=2e5, pkt_per_prb=110.0)
    assert resource_params_from_dict(resource_params_to_dict(params)) == params


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError):
        load_sim_config(str(path))


@pytest.mark.parametrize("section, field, value, path, message", [
    (("budget",), "per_slice_cap", 2.0, "budget", "per_slice_cap must be in (0, 1]"),
    (("resource",), "cu_scale", 1.5, "resource", "cu_scale must be in (0, 1)"),
    (("scaling",), "lo", 0.9, "scaling", "thresholds must satisfy 0 < lo < hi <= 1"),
    (("profiles", 0, "qos"), "reliability", 2.0, "profiles[0].qos",
     "reliability must be in (0, 1]"),
    (("profiles", 0, "mcs", 0), "code_rate", 2.0, "profiles[0].mcs[0]",
     "code_rate must be in (0, 1]"),
    (("profiles", 0), "drb_arrival_rate", -1, "profiles[0]",
     "drb_arrival_rate must be in [0, 700] DRBs/tick"),
], ids=["budget", "resource", "scaling", "qos", "mcs-atom", "profile"])
def test_an_out_of_range_value_is_a_config_error_at_its_record(section, field, value,
                                                                path, message):
    raw = copy.deepcopy(BASE)
    record = raw
    for key in section:
        record = record[key]
    record[field] = value
    with pytest.raises(ConfigError) as excinfo:
        sim_config_from_dict(raw)
    assert excinfo.value.path == path
    assert str(excinfo.value) == f"{path}: {message}"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config() -> dict:
    """The YAML block of the README's "Simulation config" section."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```yaml\n", text.index("### Simulation config")) + len("```yaml\n")
    return yaml.safe_load(text[start:text.index("```", start)])


def test_the_readme_config_block_is_read():
    config = sim_config_from_dict(readme_config())
    assert config.scenario is Scenario.S4_DU_SHARED
    assert config.params.vnic_service_rate == 100000.0
    assert config.vnic_delay_cap_ms == 2.0
    assert [p.snssai.key() for p in config.profiles] == ["eMBB"]
    assert config.profiles[0].mcs_distribution[0].modulation_order == 6


MISSING = "missing required field"
NUMBER, INTEGER = "expected a number", "expected an integer"

# Every key of the README's config block, written by hand from its
# default table: the key's path in the file; what leaving it out gives
# (a default, read back by the getter, or an error); and the error texts
# for the key written as "x" and as true.
KEY_TABLE = [
    ("ticks", MISSING, INTEGER, INTEGER, None),
    ("total_prbs", MISSING, INTEGER, INTEGER, None),
    ("seed", None, INTEGER, INTEGER, lambda c: c.seed),
    ("scenario", None, "'x' not one of s1, s2, s3, s4", "expected a string",
     lambda c: c.scenario),
    ("budget.vcpu_capacity", 1.0, NUMBER, NUMBER, lambda c: c.budget.vcpu_capacity),
    ("budget.per_slice_cap", 0.9, NUMBER, NUMBER, lambda c: c.budget.per_slice_cap),
    ("resource.c0", 0.05, NUMBER, NUMBER, lambda c: c.params.c0),
    ("resource.k", 0.001, NUMBER, NUMBER, lambda c: c.params.k),
    ("resource.beta", 0.35, NUMBER, NUMBER, lambda c: c.params.beta),
    ("resource.cu_scale", 0.3, NUMBER, NUMBER, lambda c: c.params.cu_scale),
    ("resource.vnic_mu", 100000.0, NUMBER, NUMBER, lambda c: c.params.vnic_service_rate),
    ("resource.pkt_per_prb", 125.0, NUMBER, NUMBER, lambda c: c.params.pkt_per_prb),
    ("scaling.hi", 0.8, NUMBER, NUMBER, lambda c: c.thresholds.hi),
    ("scaling.lo", 0.3, NUMBER, NUMBER, lambda c: c.thresholds.lo),
    ("scaling.window", 5, INTEGER, INTEGER, lambda c: c.thresholds.window),
    ("scaling.cooldown", 3, INTEGER, INTEGER, lambda c: c.thresholds.cooldown),
    ("admission.vnic_delay_cap_ms", 2.0, NUMBER, NUMBER, lambda c: c.vnic_delay_cap_ms),
    ("profiles", MISSING, "expected a list, got str", "expected a list, got bool", None),
    ("profiles[0].snssai", MISSING, "expected a mapping, got str",
     "expected a mapping, got bool", None),
    ("profiles[0].drb_arrival_rate", MISSING, NUMBER, NUMBER, None),
    ("profiles[0].mean_holding", MISSING, NUMBER, NUMBER, None),
    ("profiles[0].initial_drbs", 0, INTEGER, INTEGER, lambda c: c.profiles[0].initial_drbs),
    ("profiles[0].qos", MISSING, "expected a mapping, got str", "expected a mapping, got bool",
     None),
    ("profiles[0].qos.throughput_mbps", MISSING, NUMBER, NUMBER, None),
    ("profiles[0].qos.latency_ms", MISSING, NUMBER, NUMBER, None),
    ("profiles[0].qos.reliability", MISSING, NUMBER, NUMBER, None),
    ("profiles[0].mcs", MISSING, "expected a list, got str", "expected a list, got bool", None),
    ("profiles[0].mcs[0].modulation_order", MISSING, INTEGER, INTEGER, None),
    ("profiles[0].mcs[0].code_rate", MISSING, NUMBER, NUMBER, None),
    ("profiles[0].mcs[0].p", 1.0, NUMBER, NUMBER,
     lambda c: c.profiles[0].mcs_distribution[0].p),
    ("profiles[0].seed", 0, INTEGER, INTEGER, lambda c: c.profiles[0].seed),
]
# The snssai is read as a record of its own: its errors name the snssai,
# then the key within it.
SNSSAI_TABLE = [
    ("service_type", MISSING, "'x' not one of eMBB, uRLLC, mMTC", "expected a string", None),
    ("subtype", None, None, "expected a string", lambda c: c.profiles[0].snssai.subtype),
]


def _steps(path: str) -> list:
    return [int(part) if part.isdigit() else part
            for part in path.replace("[", ".").replace("]", "").split(".")]


def _with(path: str, value=None, drop: bool = False) -> dict:
    """The README config with the key at ``path`` set to ``value``, or
    left out if ``drop``."""
    raw = readme_config()
    *outer, last = _steps(path)
    record = raw
    for step in outer:
        record = record[step]
    if drop:
        record.pop(last, None)
    else:
        record[last] = value
    return raw


def _error(raw: dict) -> str:
    with pytest.raises(ConfigError) as excinfo:
        sim_config_from_dict(raw)
    return str(excinfo.value)


def _cases():
    for path, absent, on_x, on_true, read in KEY_TABLE:
        yield path, path, absent, on_x, on_true, read
    for key, absent, on_x, on_true, read in SNSSAI_TABLE:
        path = f"profiles[0].snssai.{key}"
        yield path, f"profiles[0].snssai: {key}", absent, on_x, on_true, read


@pytest.mark.parametrize("path, where, absent, on_x, on_true, read", list(_cases()),
                         ids=[case[0] for case in _cases()])
def test_each_readme_key_has_its_default_and_its_type_errors(path, where, absent, on_x,
                                                             on_true, read):
    if absent is MISSING:
        assert _error(_with(path, drop=True)) == f"{where}: {MISSING}"
    else:
        assert read(sim_config_from_dict(_with(path, drop=True))) == absent
    for value, message in (("x", on_x), (True, on_true)):
        if message is not None:
            assert _error(_with(path, value)) == f"{where}: {message}"
    if path not in ("profiles", "profiles[0].mcs"):
        # A key written with no value is left out; a list is not.
        assert (_error(_with(path, None)) == f"{where}: {MISSING}" if absent is MISSING
                else read(sim_config_from_dict(_with(path, None))) == absent)


@pytest.mark.parametrize("path", ["profiles", "profiles[0].mcs"])
def test_a_list_key_must_hold_entries(path):
    assert _error(_with(path, [])) == f"{path}: expected a non-empty list"
    assert _error(_with(path, None)) == f"{path}: expected a list, got NoneType"


@pytest.mark.parametrize("section", ["budget", "resource", "scaling", "admission"])
def test_a_section_written_with_no_value_takes_its_defaults(section):
    config = sim_config_from_dict(_with(section, None))
    assert config == sim_config_from_dict(_with(section, drop=True))
    assert config.budget == CapacityBudget() and config.thresholds == ScalingThresholds()
    assert _error(_with(section, "x")) == f"{section}: expected a mapping, got str"


@pytest.mark.parametrize("path, key", [
    ("", "admision"), ("resource", "vnic_service_rate"), ("scaling", "windw"),
    ("admission", "vnic_delay_cap"), ("budget", "cap"), ("profiles[0]", "mcs_distribution"),
    ("profiles[0].qos", "jitter_ms"), ("profiles[0].mcs[0]", "probability"),
    ("profiles[0].snssai", "subtyp"),
], ids=["top", "resource", "scaling", "admission", "budget", "profile", "qos", "mcs", "snssai"])
def test_an_unknown_key_is_a_config_error_at_its_mapping(path, key):
    raw = _with(f"{path}.{key}" if path else key, 1)
    assert _error(raw).startswith(f"{path or 'config'}: unknown key {key!r}; expected one of ")


def test_inf_is_read_where_the_readme_allows_it():
    assert math.isinf(sim_config_from_dict(
        _with("admission.vnic_delay_cap_ms", "inf")).vnic_delay_cap_ms)
    assert math.isinf(sim_config_from_dict(
        _with("profiles[0].mean_holding", "Infinity")).profiles[0].mean_holding)
    assert _error(_with("resource.k", "inf")) == f"resource.k: {NUMBER}"


def test_the_scenario_is_read_without_regard_to_case():
    assert sim_config_from_dict(_with("scenario", "S2")).scenario is Scenario.S2_ALL_SHARED
