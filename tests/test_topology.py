from __future__ import annotations

import pytest

from helpers import build_descriptor_set

from ranslice.orchestrator import Orchestrator
from ranslice.resources import CapacityBudget, ResourceModelParams
from ranslice.topology import (
    DrbQos,
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


def live_instances(ds, scenario):
    """The instances of every declared subnet instantiated at its lowest IL."""
    orch = Orchestrator(ds, scenario, ResourceModelParams(), CapacityBudget(1.0, 0.9))
    for s in ds.snssais():
        orch.instantiate_subnet(s)
    return orch.instances()


def counts(instances) -> tuple[int, int]:
    return (sum(i.kind == "cu" for i in instances), sum(i.kind == "du" for i in instances))


def test_instance_counts_two_slices_three_dus():
    ds = build_descriptor_set(n_slices=2, du_counts=(3,))
    expected = {
        Scenario.S1_DEDICATED: (2, 6),
        Scenario.S2_ALL_SHARED: (1, 3),
        Scenario.S3_CU_SHARED: (1, 6),
        Scenario.S4_DU_SHARED: (2, 3),
    }
    for scenario, cus_dus in expected.items():
        assert counts(live_instances(ds, scenario)) == cus_dus


def test_single_slice_scenarios_coincide():
    # One slice shares with nobody: every scenario gives one CU, the
    # DU pool and no matching table.
    ds = build_descriptor_set(n_slices=1, du_counts=(4,))
    seen = set()
    for scenario in Scenario:
        instances = live_instances(ds, scenario)
        assert not any(i.shared for i in instances)
        topology = build_instance_graph(ds, instances)
        assert topology["snssai_to_du"] == {} and topology["cu_to_snssai"] == {}
        seen.add(counts(instances))
    assert seen == {(1, 4)}


def test_instance_count_ordering_across_grid():
    # S2 <= S4 <= S3 <= S1 in total VNF instances, strict for K >= 2
    # and n >= 2; checked exhaustively.
    for k in (2, 3, 4):
        for n in (1, 2, 3):
            ds = build_descriptor_set(n_slices=k, du_counts=(n,))
            totals = {sc: len(live_instances(ds, sc)) for sc in Scenario}
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
    ds = build_descriptor_set(n_slices=2, du_counts=(2,))
    s1, s2, s3, s4 = (build_instance_graph(ds, live_instances(ds, sc))
                      for sc in (Scenario.S1_DEDICATED, Scenario.S2_ALL_SHARED,
                                 Scenario.S3_CU_SHARED, Scenario.S4_DU_SHARED))

    assert set(s3["snssai_to_du"]) == {s.key() for s in ds.snssais()}
    for key, pool in s3["snssai_to_du"].items():
        assert pool == [f"du-{key}-1", f"du-{key}-2"]
    assert not s3["cu_to_snssai"]

    # One table entry per CU, mapping its identifier to the slice it serves.
    assert s4["cu_to_snssai"] == {"cu-eMBB": "eMBB", "cu-uRLLC": "uRLLC"}
    assert list(s4["cu_to_snssai"]) == s4["cu_instances"]
    assert not s4["snssai_to_du"]

    for topology in (s1, s2):
        assert not topology["snssai_to_du"]
        assert not topology["cu_to_snssai"]


def test_owner_set_shapes_per_scenario():
    ds = build_descriptor_set(n_slices=3, du_counts=(2, 3))
    all_slices = set(ds.snssais())
    for scenario in Scenario:
        instances = live_instances(ds, scenario)
        assert counts(instances) == expected_counts(scenario, 3, 2)
        for inst in instances:
            shared = scenario.cu_shared if inst.kind == "cu" else scenario.du_shared
            assert inst.shared == shared
            if shared:
                assert set(inst.owners) == all_slices
            else:
                assert len(inst.owners) == 1


def test_rus_shared_in_every_scenario():
    ds = build_descriptor_set(n_slices=2, n_rus=3)
    for scenario in Scenario:
        topology = build_instance_graph(ds, live_instances(ds, scenario))
        assert topology["ru_units"] == ["pnfd-ru-1", "pnfd-ru-2", "pnfd-ru-3"]


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
        for n in (1, 2):
            ds = build_descriptor_set(n_slices=k, du_counts=(n,))
            for scenario in Scenario:
                assert counts(live_instances(ds, scenario)) == expected_counts(scenario, k, n)


def test_drb_qos_invariants():
    with pytest.raises(ValueError):
        DrbQos(throughput_mbps=0.0, latency_ms=10.0, reliability=0.9)
    with pytest.raises(ValueError):
        DrbQos(throughput_mbps=1.0, latency_ms=10.0, reliability=1.5)
