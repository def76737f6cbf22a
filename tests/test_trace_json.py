"""The trace writers against the generic JSON encoder and a plain CSV
writer, over rows that share objects as the rows of a run do; the
premise on which a run shares equal rows; and the determinism of whole
runs: the same config gives the same export bytes, in this process and
in one with another hash seed."""

from __future__ import annotations

import csv
import io
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
    CSV_TRACE_HEADER,
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


def plain_csv(trace: SimTrace) -> str:
    """The trace CSV written row by row, formatting every cell anew."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_TRACE_HEADER)
    for row in trace.rows:
        for sr in row.slices:
            events = ";".join(
                str(e) for e in row.events
                if e.snssai is None or e.snssai == sr.snssai)
            writer.writerow([
                row.tick, sr.snssai.key(), sr.prbs,
                f"{sr.du_util:.6f}", f"{sr.cu_util:.6f}",
                f"{sr.vnic_wait_s * 1e3:.6f}",
                sr.admitted, sr.rejected, row.vm_count, events,
            ])
    return buf.getvalue()


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


def slice_rows(reals=REALS):
    return st.builds(SliceRow, snssai=SNSSAIS, prbs=INTS, du_util=reals, cu_util=reals,
                     vnic_wait_s=FLOATS, arrived=INTS, admitted=INTS, rejected=INTS)


# The writer reads a layout instance's id, kind and capacity alone.
INSTANCES = st.builds(Instance, instance_id=NAMES, kind=st.one_of(NAMES, OTHER),
                      owners=st.just(()), capacity=REALS)
LAYOUTS = st.lists(INSTANCES, max_size=5).map(tuple)


@st.composite
def tick_rows(draw, layouts: list, slices: list, consumptions: dict) -> TickRow:
    """A row holding one of ``layouts``, one of ``slices`` and one of the
    ``consumptions`` tuples of its layout's length by identity, as the
    rows of a run share them."""
    layout = draw(st.sampled_from(layouts))
    return TickRow(tick=draw(INTS), slices=draw(st.sampled_from(slices)),
                   layout=layout, consumptions=draw(st.sampled_from(consumptions[len(layout)])),
                   events=tuple(draw(st.lists(events(), max_size=12))),
                   vm_count=draw(INTS), isolation_violations=draw(INTS))


@st.composite
def traces(draw, reals=REALS) -> SimTrace:
    # Up to two more layouts, of any length or of the first one's, so
    # that rendering keyed on anything but the layout object mixes them up.
    first = draw(LAYOUTS)
    same_length = st.lists(INSTANCES, min_size=len(first), max_size=len(first)).map(tuple)
    layouts = [first, *draw(st.lists(st.one_of(LAYOUTS, same_length), max_size=2))]
    # Pools the rows draw from by identity, so that the writers' caches
    # hit: slices tuples whose SliceRows are new or taken from a pool (one
    # may repeat in a tuple, a duplicate key), and consumptions tuples per
    # length, which layouts of one length share.
    pool = draw(st.lists(slice_rows(reals), min_size=1, max_size=4))
    members = st.one_of(st.sampled_from(pool), slice_rows(reals))
    slices = draw(st.lists(st.lists(members, max_size=4).map(tuple), min_size=1, max_size=4))
    consumptions = {n: draw(st.lists(st.tuples(*[reals] * n), min_size=1, max_size=2))
                    for n in {len(layout) for layout in layouts}}
    return SimTrace(scenario=draw(st.sampled_from(Scenario)), total_prbs=draw(INTS),
                    rows=draw(st.lists(tick_rows(layouts, slices, consumptions), max_size=4)),
                    topology=draw(st.dictionaries(TEXT, JSON_VALUES, max_size=3)),
                    findings=draw(st.lists(TEXT, max_size=3)))


# Two rows on one layout with a duplicate id, so the second reuses the
# rendered layout, then a row on another layout of the same length;
# consumptions that are not finite floats.
SHARED_LAYOUT = (Instance("du-1", "du", (), 4.0), Instance("cu-1", "cu", (), 2.0),
                 Instance("du-1", "du", (), 1))
NEXT_LAYOUT = (Instance("du-1", "du", (), 4.0), Instance("du-2", "du", (), 4.0),
               Instance("cu-1", "cu", (), 2.0))
# One slices tuple and one consumptions tuple shared by rows on two
# layouts of one length, holding NaN, -0.0, True and a duplicate key;
# the reversed tuple shares its SliceRows and keeps the other duplicate.
EMBB = Snssai(ServiceType.EMBB)
SHARED_ROW = SliceRow(EMBB, 7, math.nan, -0.0, 0.0, 2, True, 1)
SHARED_SLICES = (SHARED_ROW, SliceRow(Snssai(ServiceType.URLLC), 0, -0.0, 0.5, -0.0, 0, 0, 0),
                 SliceRow(EMBB, True, 1, 0.25, math.nan, 1, 1, 0))
SHARED_CONSUMPTIONS = (math.nan, -0.0, True)
SHARED_EVENT = ScalingEvent(time=1, target=ScaleTarget.CU, snssai=EMBB, from_level="a",
                            to_level="b", cause=ScalingCause.LOAD_INCREASE)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=traces())
@example(trace=SimTrace(Scenario.S1_DEDICATED, 273))
@example(trace=SimTrace(Scenario.S2_ALL_SHARED, 273, rows=[
    TickRow(0, (), SHARED_LAYOUT, (0.5, math.nan, 1), (), 3, 0),
    TickRow(1, (), SHARED_LAYOUT, (math.inf, -0.0, True), (), 3, 0),
    TickRow(2, (), NEXT_LAYOUT, (0.5, 0.25, -math.inf), (), 3, 0)]))
@example(trace=SimTrace(Scenario.S4_DU_SHARED, 273, rows=[
    TickRow(0, SHARED_SLICES, SHARED_LAYOUT, SHARED_CONSUMPTIONS, (), 3, 0),
    TickRow(1, SHARED_SLICES, NEXT_LAYOUT, SHARED_CONSUMPTIONS, (), 3, 0),
    TickRow(2, SHARED_SLICES[::-1], SHARED_LAYOUT, SHARED_CONSUMPTIONS, (), 3, 0)]))
def test_trace_json_equals_the_generic_encoder(trace):
    assert trace.to_json() == generic(trace)


# Numbers alone where the CSV formats with .6f; other cells are str()'d.
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=traces(reals=st.one_of(FLOATS, st.integers(), st.booleans())))
@example(trace=SimTrace(Scenario.S2_ALL_SHARED, 273, rows=[
    TickRow(0, SHARED_SLICES, SHARED_LAYOUT, SHARED_CONSUMPTIONS, (), 3, 0),
    TickRow(1, SHARED_SLICES, NEXT_LAYOUT, SHARED_CONSUMPTIONS, (SHARED_EVENT,), 3, 0)]))
def test_trace_csv_equals_a_plain_writer(trace):
    assert trace.to_csv() == plain_csv(trace)


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


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_slices=st.integers(1, 3), scenario=st.sampled_from(Scenario),
       seed=st.integers(0, 2**32), rate=st.floats(0.0, 4.0), mbps=st.floats(1.0, 40.0),
       c0=st.sampled_from((-0.0, 0.0, 0.02)), total_prbs=st.sampled_from((0, 40, 273)),
       ticks=st.integers(1, 20))
def test_a_run_writes_one_type_per_field_and_no_negative_zero(n_slices, scenario, seed, rate,
                                                             mbps, c0, total_prbs, ticks):
    # sim.run shares rows of equal values, which is exact only if equal
    # values have equal text: no field mixes types, and no float is -0.0
    # (c0 = -0.0 passes ResourceModelParams).
    ds = build_descriptor_set(n_slices=n_slices, du_counts=(1, 2, 4), cu_vcpus=(1, 2, 4),
                              du_vcpus=4)
    config = make_config(ds, ticks=ticks, total_prbs=total_prbs,
                         params=ResourceModelParams(c0=c0, k=0.004),
                         budget=CapacityBudget(4.0, 0.9), arrival_rate=rate, mean_holding=4.0,
                         throughput_mbps=mbps, seed=seed, scenario=scenario)
    for row in run(config, ds).rows:
        for sr in row.slices:
            assert type(sr.prbs) is type(sr.arrived) is type(sr.admitted) is int
            for x in (sr.du_util, sr.cu_util, sr.vnic_wait_s):
                assert type(x) is float and math.copysign(1.0, x) == 1.0
        for c in row.consumptions:
            assert type(c) is float and math.copysign(1.0, c) == 1.0


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
