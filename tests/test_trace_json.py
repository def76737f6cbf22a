"""The trace JSON writer against the generic encoder, and the
determinism of whole runs: the same config gives the same export bytes,
in this process and in one with another hash seed."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import build_descriptor_set, make_config

from ranslice.descriptors import ServiceType, Snssai
from ranslice.orchestrator import (
    Instance,
    Orchestrator,
    ScaleTarget,
    ScalingCause,
    ScalingEvent,
)
from ranslice.resources import CapacityBudget, ResourceModelParams
from ranslice.sim import (
    SimTrace,
    SliceRow,
    TickRow,
    export,
    run,
)
from ranslice.topology import Scenario

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def generic(trace: SimTrace) -> str:
    return json.dumps(trace.to_json_obj(), indent=2, sort_keys=True)


# Text with the characters JSON escapes or writes as \u sequences, or
# any text.
TEXT = st.one_of(st.text(st.sampled_from('ab-1"\\\n\t/é€😀\x00\x7f'), max_size=6),
                 st.text(max_size=4))
# A few short names, so that ids and slice keys repeat within a tick.
NAMES = st.one_of(st.sampled_from(("cu-1", "du-1", "du-2", 'q"', "a\\b", "é")), TEXT)
FLOATS = st.one_of(st.sampled_from((math.inf, -math.inf, math.nan, 0.0, -0.0)), st.floats())
# Mostly the types sim.run writes; sometimes a value that is not exactly
# str, int or float, which the writer hands to json.dumps.
OTHER = st.one_of(st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
                  st.dictionaries(TEXT, st.integers(), max_size=2))
INTS = st.one_of(st.integers(), OTHER)
REALS = st.one_of(FLOATS, st.integers(), OTHER)
SNSSAIS = st.builds(Snssai, st.sampled_from(ServiceType), st.one_of(st.none(), NAMES))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=8)


@st.composite
def events(draw) -> ScalingEvent:
    from_level, to_level = draw(TEXT), draw(TEXT)
    if to_level == from_level:
        to_level += "+"
    return ScalingEvent(time=draw(st.integers(0, 1000)),
                        target=draw(st.sampled_from(ScaleTarget)),
                        snssai=draw(st.one_of(st.none(), SNSSAIS)),
                        from_level=from_level, to_level=to_level,
                        cause=draw(st.sampled_from(ScalingCause)))


SLICE_ROWS = st.builds(SliceRow, snssai=SNSSAIS, prbs=INTS, du_util=REALS, cu_util=REALS,
                       vnic_wait_s=FLOATS, arrived=INTS, admitted=INTS, rejected=INTS)
# The writer reads a layout instance's id, kind and capacity alone.
INSTANCES = st.builds(Instance, instance_id=NAMES, kind=st.one_of(NAMES, OTHER),
                      owners=st.just(()), capacity=REALS)
LAYOUTS = st.lists(INSTANCES, max_size=5).map(tuple)


@st.composite
def tick_rows(draw, layouts: list) -> TickRow:
    """A row holding one of ``layouts`` by identity, as the rows between
    two relayouts share one, with one consumption per instance."""
    layout = draw(st.sampled_from(layouts))
    return TickRow(tick=draw(INTS), slices=tuple(draw(st.lists(SLICE_ROWS, max_size=4))),
                   layout=layout, consumptions=tuple(draw(REALS) for _ in layout),
                   events=tuple(draw(st.lists(events(), max_size=12))),
                   vm_count=draw(INTS), isolation_violations=draw(INTS))


@st.composite
def traces(draw) -> SimTrace:
    # Up to two more layouts, of any length or of the first one's, so
    # that rendering keyed on anything but the layout object mixes them up.
    first = draw(LAYOUTS)
    same_length = st.lists(INSTANCES, min_size=len(first), max_size=len(first)).map(tuple)
    layouts = [first, *draw(st.lists(st.one_of(LAYOUTS, same_length), max_size=2))]
    return SimTrace(scenario=draw(st.sampled_from(Scenario)), total_prbs=draw(INTS),
                    rows=draw(st.lists(tick_rows(layouts), max_size=4)),
                    topology=draw(st.dictionaries(TEXT, JSON_VALUES, max_size=3)),
                    findings=draw(st.lists(TEXT, max_size=3)))


# Two rows on one layout with a duplicate id, so the second reuses the
# rendered layout, then a row on another layout of the same length;
# consumptions that are not finite floats.
SHARED_LAYOUT = (Instance("du-1", "du", (), 4.0), Instance("cu-1", "cu", (), 2.0),
                 Instance("du-1", "du", (), 1))
NEXT_LAYOUT = (Instance("du-1", "du", (), 4.0), Instance("du-2", "du", (), 4.0),
               Instance("cu-1", "cu", (), 2.0))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=traces())
@example(trace=SimTrace(Scenario.S1_DEDICATED, 273))
@example(trace=SimTrace(Scenario.S2_ALL_SHARED, 273, rows=[
    TickRow(0, (), SHARED_LAYOUT, (0.5, math.nan, 1), (), 3, 0),
    TickRow(1, (), SHARED_LAYOUT, (math.inf, -0.0, True), (), 3, 0),
    TickRow(2, (), NEXT_LAYOUT, (0.5, 0.25, -math.inf), (), 3, 0)]))
def test_trace_json_equals_the_generic_encoder(trace):
    assert trace.to_json() == generic(trace)


def test_trace_json_of_a_run_with_a_saturated_vnic(monkeypatch):
    # Admission that skips the vNIC limits lets the DUs' offered packet
    # rate pass the vNIC service rate; the trace then reports an infinite
    # wait, which JSON spells Infinity.
    limit = Orchestrator._limit
    monkeypatch.setattr(Orchestrator, "_limit",
                        lambda self, inst, vnic=True, loads=None: limit(self, inst, False, loads))
    ds = build_descriptor_set(n_slices=2, du_vcpus=16)
    config = make_config(ds, ticks=3, initial_drbs=20, throughput_mbps=20.0,
                         params=ResourceModelParams(c0=0.01, k=1e-4, vnic_service_rate=5e3),
                         budget=CapacityBudget(16.0, 0.9), scenario=Scenario.S2_ALL_SHARED)
    trace = run(config, ds)
    assert any(math.isinf(sr.vnic_wait_s) for row in trace.rows for sr in row.slices)
    text = trace.to_json()
    assert '"vnic_wait_ms": Infinity' in text
    assert text == generic(trace)


def export_bytes(trace: SimTrace) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        out = []
        for fmt in ("json", "csv"):
            path = os.path.join(tmp, f"trace.{fmt}")
            export(trace, fmt, path)
            out.append(Path(path).read_bytes())
    return out[0], out[1]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_slices=st.integers(1, 3), scenario=st.sampled_from(Scenario),
       seed=st.integers(0, 2**32), rate=st.floats(0.0, 4.0), holding=st.sampled_from((2.0, 8.0)),
       mbps=st.floats(1.0, 40.0), ticks=st.integers(1, 30))
def test_same_config_gives_the_same_export_bytes(n_slices, scenario, seed, rate, holding,
                                                 mbps, ticks):
    ds = build_descriptor_set(n_slices=n_slices, du_counts=(1, 2, 4), cu_vcpus=(1, 2, 4),
                              du_vcpus=4)
    config = make_config(ds, ticks=ticks, params=ResourceModelParams(c0=0.02, k=0.004),
                         budget=CapacityBudget(4.0, 0.9), arrival_rate=rate,
                         mean_holding=holding, throughput_mbps=mbps, seed=seed,
                         scenario=scenario)
    assert export_bytes(run(config, ds)) == export_bytes(run(config, ds))


# Eight slices under s2 and s4 (so every tick has many instance ids and
# slice keys to sort), run here and in processes with other hash seeds.
HASH_SEED_CASE = """
import hashlib
from helpers import build_descriptor_set, make_config
from ranslice.resources import CapacityBudget, ResourceModelParams
from ranslice.sim import run
from ranslice.topology import Scenario

def digests():
    ds = build_descriptor_set(n_slices=8, du_counts=(1, 2, 4), cu_vcpus=(1, 2, 4), du_vcpus=4)
    out = []
    for scenario in (Scenario.S2_ALL_SHARED, Scenario.S4_DU_SHARED):
        config = make_config(ds, ticks=40, params=ResourceModelParams(c0=0.02, k=0.004),
                             budget=CapacityBudget(4.0, 0.9), arrival_rate=1.5,
                             mean_holding=8.0, throughput_mbps=5.0, seed=3, scenario=scenario)
        trace = run(config, ds)
        for text in (trace.to_json(), trace.to_csv()):
            out.append(hashlib.sha256(text.encode()).hexdigest())
    return out
"""


def test_export_bytes_do_not_depend_on_the_hash_seed():
    namespace: dict = {}
    exec(HASH_SEED_CASE, namespace)
    here = namespace["digests"]()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))))
    for hash_seed in ("1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_CASE + "\nprint(' '.join(digests()))"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout.split() == here, hash_seed
