from __future__ import annotations

import copy
import math

import pytest
import yaml

from ranslice.config import (
    load_sim_config,
    resource_params_from_dict,
    resource_params_to_dict,
    sim_config_from_dict,
)
from ranslice.resources import ResourceModelParams
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
