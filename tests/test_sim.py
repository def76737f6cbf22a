from __future__ import annotations

import dataclasses
import json
import math

import pytest

import yaml

from helpers import build_descriptor_set, build_documents, make_config

from ranslice.descriptors import DescriptorSet, parse_descriptor_set
from ranslice.orchestrator import BaselineOverloadError
from ranslice.resources import CapacityBudget, ResourceModelParams
from ranslice.sim import (
    ConfigError,
    DemandProfile,
    McsAtom,
    SimTrace,
    compare_scenarios,
    export,
    run,
    summarize,
)
from ranslice.topology import DrbQos, Scenario

AMPLE_PARAMS = ResourceModelParams(c0=0.01, k=1e-4, beta=0.35)


def test_zero_ticks_rejected_at_config_validation(ds_two_slices):
    with pytest.raises(ConfigError) as excinfo:
        make_config(ds_two_slices, ticks=0)
    assert "ticks" in str(excinfo.value)


def test_duplicate_profile_rejected(ds_two_slices):
    config = make_config(ds_two_slices, ticks=1)
    with pytest.raises(ConfigError):
        dataclasses.replace(config, profiles=(config.profiles[0], config.profiles[0]))


def test_profile_set_must_match_nssts(ds_two_slices):
    config = make_config(ds_two_slices, ticks=1, scenario=Scenario.S1_DEDICATED)
    with pytest.raises(ConfigError) as excinfo:
        run(dataclasses.replace(config, profiles=config.profiles[:1]), ds_two_slices)
    assert "profiles" in str(excinfo.value)


def test_missing_scenario_rejected(ds_two_slices):
    config = make_config(ds_two_slices, ticks=1, scenario=None)
    with pytest.raises(ConfigError):
        run(config, ds_two_slices)


def test_idle_system_constant_at_lowest_levels(ds_two_slices):
    config = make_config(ds_two_slices, ticks=20, scenario=Scenario.S4_DU_SHARED,
                         arrival_rate=0.0)
    trace = run(config, ds_two_slices)
    assert len(trace.rows) == 20
    for row in trace.rows:
        assert row.vm_count == 3          # 2 CUs + 1 shared DU, lowest ILs
        assert not row.events
        for sr in row.slices:
            assert sr.admitted == sr.rejected == sr.arrived == 0
            assert sr.prbs == 0


def test_same_seed_identical_exports(tmp_path, ds_two_slices):
    config = make_config(ds_two_slices, ticks=30, scenario=Scenario.S4_DU_SHARED,
                         params=AMPLE_PARAMS, arrival_rate=0.6, mean_holding=6.0,
                         seed=11)
    paths = []
    for i in (1, 2):
        trace = run(config, ds_two_slices)
        csv_path = tmp_path / f"run{i}.csv"
        json_path = tmp_path / f"run{i}.json"
        export(trace, "csv", str(csv_path))
        export(trace, "json", str(json_path))
        paths.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert paths[0] == paths[1]


def test_different_seed_changes_trace(ds_two_slices):
    base = make_config(ds_two_slices, ticks=30, scenario=Scenario.S4_DU_SHARED,
                       params=AMPLE_PARAMS, arrival_rate=0.6, mean_holding=6.0, seed=1)
    other = dataclasses.replace(base, seed=2)
    t1, t2 = run(base, ds_two_slices), run(other, ds_two_slices)
    arrivals1 = [sr.arrived for row in t1.rows for sr in row.slices]
    arrivals2 = [sr.arrived for row in t2.rows for sr in row.slices]
    assert arrivals1 != arrivals2


def test_conservation_admitted_plus_rejected(ds_two_slices):
    config = make_config(ds_two_slices, ticks=50, scenario=Scenario.S4_DU_SHARED,
                         arrival_rate=1.5, mean_holding=8.0, throughput_mbps=30.0,
                         seed=3)
    trace = run(config, ds_two_slices)
    assert any(sr.rejected for row in trace.rows for sr in row.slices)
    for row in trace.rows:
        for sr in row.slices:
            assert sr.admitted + sr.rejected == sr.arrived


def test_vm_count_matches_next_snapshot(ds_two_slices):
    # The row's vm_count is the post-scaling state, which is exactly the
    # instance set projected at the start of the next tick.
    config = make_config(ds_two_slices, ticks=40, scenario=Scenario.S4_DU_SHARED,
                         arrival_rate=0.8, mean_holding=10.0, seed=5,
                         params=ResourceModelParams(c0=0.02, k=2e-3, beta=0.35))
    trace = run(config, ds_two_slices)
    for row, nxt in zip(trace.rows, trace.rows[1:]):
        assert row.vm_count == len(nxt.instances)


def test_shared_run_never_uses_more_vcpu_ticks(ds_two_slices):
    # With capacity ample enough that both scenarios admit everything,
    # aggregating the load on shared instances cannot cost more
    # vCPU-ticks than dedicated instances, each paying the baseline.
    ds = build_descriptor_set(n_slices=2, du_vcpus=4)
    config = make_config(ds, ticks=40, params=AMPLE_PARAMS,
                         budget=CapacityBudget(4.0, 0.9),
                         arrival_rate=0.5, mean_holding=6.0, seed=9)
    t1 = run(dataclasses.replace(config, scenario=Scenario.S1_DEDICATED), ds)
    t2 = run(dataclasses.replace(config, scenario=Scenario.S2_ALL_SHARED), ds)
    rejected = sum(sr.rejected for t in (t1, t2) for row in t.rows for sr in row.slices)
    assert rejected == 0
    admitted1 = [sr.admitted for row in t1.rows for sr in row.slices]
    admitted2 = [sr.admitted for row in t2.rows for sr in row.slices]
    assert admitted1 == admitted2
    assert summarize(t2).total_vcpu_ticks <= summarize(t1).total_vcpu_ticks + 1e-9


def test_compare_single_slice_scenarios_coincide():
    ds = build_descriptor_set(n_slices=1)
    config = make_config(ds, ticks=15, arrival_rate=0.4, mean_holding=5.0, seed=2)
    table = compare_scenarios(config, ds, list(Scenario))
    rows = [dataclasses.replace(s, scenario=Scenario.S1_DEDICATED)
            for s in table.summaries]
    assert all(r == rows[0] for r in rows)


def test_compare_idle_vm_counts_follow_instance_enumeration():
    # Oracle: instance counts from the sharing rules with K=2 slices and
    # 3 DUs at the lowest scale level: 8/4/7/5 VMs for s1/s2/s3/s4.
    ds = build_descriptor_set(n_slices=2, du_counts=(3, 4))
    config = make_config(ds, ticks=10, arrival_rate=0.0)
    table = compare_scenarios(config, ds, [
        Scenario.S1_DEDICATED, Scenario.S2_ALL_SHARED,
        Scenario.S3_CU_SHARED, Scenario.S4_DU_SHARED])
    assert [s.mean_vm_count for s in table.summaries] == [8.0, 4.0, 7.0, 5.0]


def test_compare_uses_same_demand_seed(ds_two_slices):
    config = make_config(ds_two_slices, ticks=25, params=AMPLE_PARAMS,
                         arrival_rate=0.7, mean_holding=4.0, seed=21)
    table = compare_scenarios(config, ds_two_slices,
                              [Scenario.S1_DEDICATED, Scenario.S2_ALL_SHARED])
    assert table.summaries[0].arrived == table.summaries[1].arrived


def test_baseline_overload_is_a_typed_error():
    # Twelve slices each pay c0 = 0.1 vCPU on one 1-vCPU shared DU: the
    # baselines alone (1.2 vCPU) break isolation before any PRB is given.
    ds = build_descriptor_set(n_slices=12)
    config = make_config(ds, params=ResourceModelParams(c0=0.1),
                         scenario=Scenario.S2_ALL_SHARED)
    with pytest.raises(BaselineOverloadError,
                       match=r"du-shared-1: .* 1\.2000 vCPU against capacity 1\.0000"):
        run(config, ds)


def test_idle_trace_matches_golden_csv(ds_two_slices):
    # Freezes the CSV shape and float formatting. Idle S4: two 1-vCPU
    # CUs at c0*cu_scale = 0.015 and one shared DU carrying both slices'
    # baselines (2 * 0.05 = 0.10).
    config = make_config(ds_two_slices, ticks=2, scenario=Scenario.S4_DU_SHARED,
                         arrival_rate=0.0)
    golden = (
        "tick,slice,prbs,du_util,cu_util,vnic_wait_ms,admitted,rejected,vm_count,event\n"
        "0,eMBB,0,0.100000,0.015000,0.000000,0,0,3,\n"
        "0,uRLLC,0,0.100000,0.015000,0.000000,0,0,3,\n"
        "1,eMBB,0,0.100000,0.015000,0.000000,0,0,3,\n"
        "1,uRLLC,0,0.100000,0.015000,0.000000,0,0,3,\n"
    )
    assert run(config, ds_two_slices).to_csv() == golden


def test_export_empty_trace_header_only(tmp_path):
    trace = SimTrace(scenario=Scenario.S1_DEDICATED, total_prbs=100)
    out = tmp_path / "empty.csv"
    export(trace, "csv", str(out))
    assert out.read_text() == ("tick,slice,prbs,du_util,cu_util,vnic_wait_ms,"
                               "admitted,rejected,vm_count,event\n")


def test_export_json_roundtrip(tmp_path, ds_two_slices):
    config = make_config(ds_two_slices, ticks=5, scenario=Scenario.S2_ALL_SHARED,
                         arrival_rate=0.5, mean_holding=5.0, seed=4)
    trace = run(config, ds_two_slices)
    summary = summarize(trace)
    table_path = tmp_path / "summary.json"
    export(compare_scenarios(config, ds_two_slices, [Scenario.S2_ALL_SHARED]),
           "json", str(table_path))
    reloaded = json.loads(table_path.read_text())
    assert reloaded == [summary.to_json_obj()]


def test_export_unknown_format(tmp_path, ds_two_slices):
    trace = SimTrace(scenario=Scenario.S1_DEDICATED, total_prbs=1)
    with pytest.raises(ConfigError):
        export(trace, "xml", str(tmp_path / "x"))


def test_trace_topology_summary(ds_two_slices):
    config = make_config(ds_two_slices, ticks=2, scenario=Scenario.S3_CU_SHARED)
    trace = run(config, ds_two_slices)
    assert trace.topology["cu_instances"] == ["cu-shared"]
    assert set(trace.topology["snssai_to_du"]) == {"eMBB", "uRLLC"}


def test_trace_topology_is_the_tick_zero_instance_view():
    # uRLLC starts at a DU level with two instances, eMBB with one: the
    # exported topology and the s3 matching table list exactly the DUs
    # live at tick 0.
    docs = [yaml.safe_load(d) for d in
            build_documents(n_slices=2, du_counts=(1, 2), shared_du=False)]
    for doc in docs:
        if doc.get("gnb_nsd", {}).get("id") == "gnb-uRLLC":
            doc["gnb_nsd"]["sa_du"]["sls"][0]["constituents"][0]["instance_count"] = 2
    ds = parse_descriptor_set(docs)
    for scenario in (Scenario.S1_DEDICATED, Scenario.S3_CU_SHARED):
        trace = run(make_config(ds, ticks=1, scenario=scenario), ds)
        tick0 = [i.instance_id for i in trace.rows[0].instances if i.kind == "du"]
        assert tick0 == ["du-eMBB-1", "du-uRLLC-1", "du-uRLLC-2"]
        assert trace.topology["du_instances"] == tick0
        assert trace.rows[0].vm_count == len(tick0) + len(trace.topology["cu_instances"])
        if scenario is Scenario.S3_CU_SHARED:
            pools = trace.topology["snssai_to_du"]
            assert [du for pool in pools.values() for du in pool] == tick0


def test_descriptor_set_without_slices_is_a_config_error():
    config = make_config(DescriptorSet(), ticks=1)
    assert config.profiles == ()
    for scenario in Scenario:
        with pytest.raises(ConfigError) as excinfo:
            run(dataclasses.replace(config, scenario=scenario), DescriptorSet())
        assert excinfo.value.path == "profiles"


def test_demand_profile_invariants(ds_two_slices):
    snssai = ds_two_slices.snssais()[0]
    qos = DrbQos(10.0, 20.0, 0.99)
    with pytest.raises(ValueError):
        DemandProfile(snssai, -0.1, qos, 5.0,
                      (McsAtom(6, 0.75, 1.0),))
    with pytest.raises(ValueError):
        DemandProfile(snssai, 0.5, qos, 0.5,
                      (McsAtom(6, 0.75, 1.0),))
    with pytest.raises(ValueError):
        DemandProfile(snssai, 0.5, qos, 5.0,
                      (McsAtom(6, 0.75, 0.6), McsAtom(4, 0.5, 0.2)))
    profile = DemandProfile(snssai, 0.5, qos, math.inf,
                            (McsAtom(6, 0.75, 0.5), McsAtom(4, 0.5, 0.5)))
    assert profile.mean_holding == math.inf


def test_mixed_mcs_distribution_runs(ds_two_slices):
    config = make_config(ds_two_slices, ticks=20, scenario=Scenario.S4_DU_SHARED,
                         params=AMPLE_PARAMS, arrival_rate=0.8, mean_holding=4.0, seed=6)
    profiles = tuple(dataclasses.replace(
        p, mcs_distribution=(McsAtom(6, 0.75, 0.5), McsAtom(4, 0.5, 0.3),
                             McsAtom(2, 0.3, 0.2)))
        for p in config.profiles)
    trace = run(dataclasses.replace(config, profiles=profiles), ds_two_slices)
    assert sum(sr.admitted for row in trace.rows for sr in row.slices) > 0
    assert all(row.isolation_violations == 0 for row in trace.rows)
