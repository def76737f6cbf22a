from __future__ import annotations

import pytest

from helpers import build_descriptor_set

from ranslice.descriptors import DescriptorSet
from ranslice.topology import (
    DrbQos,
    NoSlicesError,
    Scenario,
    SliceAwareness,
    build_instance_graph,
    slice_awareness_required,
)


# Expected (cu_count, du_count) per scenario for K slices and n DUs,
# straight from the sharing rules: dedicated components multiply by K.
def expected_counts(scenario: Scenario, k: int, n: int) -> tuple[int, int]:
    cu = 1 if scenario.cu_shared else k
    du = n if scenario.du_shared else k * n
    return cu, du


def test_instance_counts_two_slices_three_dus():
    ds = build_descriptor_set(n_slices=2)
    expected = {
        Scenario.S1_DEDICATED: (2, 6),
        Scenario.S2_ALL_SHARED: (1, 3),
        Scenario.S3_CU_SHARED: (1, 6),
        Scenario.S4_DU_SHARED: (2, 3),
    }
    for scenario, (cus, dus) in expected.items():
        graph = build_instance_graph(ds, scenario, n_dus_per_gnb=3)
        assert len(graph.cu_instances) == cus
        assert len(graph.du_instances) == dus


def test_single_slice_scenarios_coincide():
    ds = build_descriptor_set(n_slices=1)
    counts = set()
    for scenario in Scenario:
        graph = build_instance_graph(ds, scenario, n_dus_per_gnb=4)
        counts.add((len(graph.cu_instances), len(graph.du_instances)))
    assert counts == {(1, 4)}


def test_instance_count_ordering_across_grid():
    # S2 <= S4 <= S3 <= S1 in total VNF instances, strict for K >= 2
    # and n >= 2; checked exhaustively.
    for k in (2, 3, 4):
        ds = build_descriptor_set(n_slices=k)
        for n in (1, 2, 3):
            totals = {sc: build_instance_graph(ds, sc, n).total_vnf_instances()
                      for sc in Scenario}
            assert (totals[Scenario.S2_ALL_SHARED]
                    <= totals[Scenario.S4_DU_SHARED]
                    <= totals[Scenario.S3_CU_SHARED]
                    <= totals[Scenario.S1_DEDICATED])
            if n >= 2:
                assert (totals[Scenario.S2_ALL_SHARED]
                        < totals[Scenario.S4_DU_SHARED]
                        < totals[Scenario.S3_CU_SHARED]
                        < totals[Scenario.S1_DEDICATED])


def test_matching_tables_per_scenario():
    ds = build_descriptor_set(n_slices=2)
    s3 = build_instance_graph(ds, Scenario.S3_CU_SHARED, 2)
    s4 = build_instance_graph(ds, Scenario.S4_DU_SHARED, 2)
    s1 = build_instance_graph(ds, Scenario.S1_DEDICATED, 2)
    s2 = build_instance_graph(ds, Scenario.S2_ALL_SHARED, 2)

    assert set(s3.snssai_to_du) == set(ds.snssais())
    for snssai, pool in s3.snssai_to_du.items():
        assert len(pool) == 2
        assert all(snssai.key() in du for du in pool)
    assert not s3.cu_to_snssai

    # One table entry per CU, mapping its identifier to the slice it serves.
    assert len(s4.cu_to_snssai) == len(s4.cu_instances)
    assert set(s4.cu_to_snssai.values()) == set(ds.snssais())
    assert not s4.snssai_to_du

    for graph in (s1, s2):
        assert not graph.snssai_to_du
        assert not graph.cu_to_snssai


def test_owner_set_shapes_per_scenario():
    ds = build_descriptor_set(n_slices=3, du_counts=(1, 2, 3))
    all_slices = frozenset(ds.snssais())
    for scenario in Scenario:
        graph = build_instance_graph(ds, scenario, 2)
        for cu in graph.cu_instances:
            assert cu.owners == (all_slices if scenario.cu_shared
                                 else frozenset({next(iter(cu.owners))}))
            if not scenario.cu_shared:
                assert len(cu.owners) == 1
        for du in graph.du_instances:
            if scenario.du_shared:
                assert du.owners == all_slices
            else:
                assert len(du.owners) == 1


def test_rus_shared_in_every_scenario():
    ds = build_descriptor_set(n_slices=2, n_rus=3)
    for scenario in Scenario:
        graph = build_instance_graph(ds, scenario, 1)
        assert len(graph.ru_units) == 3
        for du in graph.du_instances:
            assert graph.du_to_rus[du.instance_id] == graph.ru_units


def test_no_slices_error():
    with pytest.raises(NoSlicesError):
        build_instance_graph(DescriptorSet(), Scenario.S1_DEDICATED, 1)


def test_slice_awareness_per_scenario():
    assert slice_awareness_required(Scenario.S1_DEDICATED) == frozenset()
    assert slice_awareness_required(Scenario.S2_ALL_SHARED) == frozenset({
        SliceAwareness.INTRA_SLICE_RRM_DU,
        SliceAwareness.INTRA_SLICE_RRM_CU,
        SliceAwareness.RRC_LAYER,
    })
    assert slice_awareness_required(Scenario.S3_CU_SHARED) == frozenset({
        SliceAwareness.INTRA_SLICE_RRM_CU,
        SliceAwareness.RRC_LAYER,
    })
    assert slice_awareness_required(Scenario.S4_DU_SHARED) == frozenset({
        SliceAwareness.INTRA_SLICE_RRM_DU,
    })


def test_counts_match_sharing_rule_oracle():
    for k in (1, 2, 3):
        ds = build_descriptor_set(n_slices=k)
        for n in (1, 2):
            for scenario in Scenario:
                graph = build_instance_graph(ds, scenario, n)
                cu, du = expected_counts(scenario, k, n)
                assert (len(graph.cu_instances), len(graph.du_instances)) == (cu, du)


def test_drb_qos_invariants():
    with pytest.raises(ValueError):
        DrbQos(throughput_mbps=0.0, latency_ms=10.0, reliability=0.9)
    with pytest.raises(ValueError):
        DrbQos(throughput_mbps=1.0, latency_ms=10.0, reliability=1.5)
