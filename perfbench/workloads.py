"""The benchmark workloads.

Each workload generates its inputs from the seed once, untimed. A run
then repeats one fixed *pass* of work until the time is up; every pass
of a workload and seed must produce byte-identical output, so counts and
simulated values are exact per pass and host timings average over the
passes. Set-up (parse, validate, config, orchestrator construction and
subnet instantiation) is timed apart from the pass.

* ``demo-compare`` is what ``ranslice compare``/``simulate`` do on the
  shipped demo: a few live DRBs, so fixed per-tick costs dominate
  (projection, observation, trace rows, export, validating twice per
  run). Admission work that grows with DRB count stays small here.
* ``k16-pressure`` is a generated 16-slice deployment under heavy
  arrivals, where hundreds of live DRBs make ``admit_drb`` cost
  O(instances x DRBs): s1 admits nearly everything on the most
  instances, s2 refuses most arrivals on the vNIC.
* ``ramp-scaling`` drives the ``Orchestrator`` API tick by tick, as an
  online controller would, under a diurnal load that makes both s1 (per
  subnet DU pools) and s4 (shared DU via the auxiliary service) scale up
  and down. It is the only workload where the scaling policy fires.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

from ranslice.config import load_sim_config, sim_config_from_dict
from ranslice.descriptors import parse_descriptor_set, validate
from ranslice.orchestrator import Orchestrator
from ranslice.resources import CapacityBudget, check_isolation, vnic_mean_wait
from ranslice.sim import SummaryTable, export, run, summarize
from ranslice.topology import Drb, DrbQos, Scenario

import gen

DESCRIPTOR_SUFFIXES = (".yaml", ".yml", ".json")

# Ticks per scenario in one pass. Short enough that a run holds ten or
# more passes, which the per-index fastest latency samples need to shed
# the slow-downs of a busy machine (see ``tracing.Timings``); long enough
# that a pass has some 100 tick samples beyond its p90.
DEMO_TICKS = 600
K16_TICKS = 50
RAMP_TICKS = 500

# k16-pressure: the shape of a 16-slice deployment with DU levels of 1, 2
# and 4 four-vCPU instances; heavy Poisson load of 5 Mbps bearers.
K16_SHAPE = dict(n_slices=16, du_counts=(1, 2, 4), cu_vcpus=(1, 2), du_vcpus=4)
K16_LOAD = dict(rate=2.0, holding=20.0, throughput_mbps=5.0, k=3e-4)

# ramp-scaling: four slices on one-vCPU DUs (pools of 1, 2 or 4) with CU
# flavours of 1, 2 and 4 vCPUs; the diurnal swing crosses both scaling
# thresholds every period.
RAMP_SHAPE = dict(n_slices=4, du_counts=(1, 2, 4), cu_vcpus=(1, 2, 4), du_vcpus=1)
RAMP_LOAD = dict(peak_rate=1.5, trough=0.05, period=120, holding=8.0,
                 throughput_mbps=5.0, k=0.004)


def program_api(tracer=None) -> SimpleNamespace:
    """The program entry points the benchmark calls itself, wrapped in
    spans when a tracer is given."""
    calls = SimpleNamespace(parse=parse_descriptor_set, validate=validate,
                            load_config=load_sim_config, build_config=sim_config_from_dict,
                            run=run, summarize=summarize, export=export)
    if tracer is not None:
        for attr, span in (("parse", "descriptors.parse"), ("validate", "descriptors.validate"),
                           ("load_config", "config.load"), ("build_config", "config.load"),
                           ("run", "sim.run"), ("summarize", "sim.summarize"),
                           ("export", "sim.export")):
            setattr(calls, attr, tracer.wrap(span, getattr(calls, attr)))
    return calls


@dataclasses.dataclass
class PassResult:
    ticks: int = 0
    failed_ticks: int = 0
    digest: str = ""          # sha256 of the pass's JSON output
    arrived: int = 0
    rejected: int = 0
    vm_sum: float = 0.0       # summed over (scenario, tick)
    vm_n: int = 0
    wait_ms_sum: float = 0.0  # summed over (scenario, tick, slice)
    wait_n: int = 0
    events: dict = dataclasses.field(default_factory=dict)  # scenario -> scaling events
    rejections: dict = dataclasses.field(default_factory=dict)  # scenario -> (rejected, arrived)
    export_bytes: int = 0
    problems: list = dataclasses.field(default_factory=list)


class InvalidDescriptors(Exception):
    pass


def _validated(api, texts: list[str], names: list[str]):
    ds = api.parse(texts, names=names)
    report = api.validate(ds)
    if not report.ok:
        raise InvalidDescriptors(str(report))
    return ds


def _orchestrators(ds, config, scenarios) -> dict:
    out = {}
    for sc in scenarios:
        orch = Orchestrator(ds, sc, config.params, config.budget, config.thresholds,
                            config.vnic_delay_cap_ms * 1e-3)
        for s in ds.snssais():
            orch.instantiate_subnet(s)
        out[sc] = orch
    return out


def _check_rows(trace, res: PassResult) -> None:
    """Every tick: no isolation violation, and arrivals all decided."""
    for row in trace.rows:
        bad = row.isolation_violations != 0 or any(
            sr.arrived != sr.admitted + sr.rejected for sr in row.slices)
        if bad:
            res.failed_ticks += 1
            res.problems.append(f"{trace.scenario.value} tick {row.tick}: row check failed")


def _add_summary(summary, n_slices: int, res: PassResult) -> None:
    res.arrived += summary.arrived
    res.rejected += summary.rejected
    res.vm_sum += summary.mean_vm_count * summary.ticks
    res.vm_n += summary.ticks
    res.wait_ms_sum += summary.mean_vnic_wait_s * 1e3 * summary.ticks * n_slices
    res.wait_n += summary.ticks * n_slices


class Workload:
    """Descriptor texts, a config source and the scenarios of one
    workload. ``uses_sim_run`` says whether a pass runs inside
    ``sim.run``, where timing wrappers have to time ticks and admissions,
    or drives the orchestrator and times them itself."""

    name = ""
    uses_sim_run = True
    scenarios: tuple[Scenario, ...] = ()

    def __init__(self, root: Path, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir

    def config(self, api):
        return api.build_config(self.config_doc)

    def setup(self, api) -> SimpleNamespace:
        """Parse and validate the descriptors, load or build the config,
        construct one orchestrator per scenario and instantiate the
        subnets. ``sim.run`` builds its own orchestrator, so those of a
        sim.run workload are built only to time the set-up."""
        ds = _validated(api, self.texts, self.names)
        config = self.config(api)
        return SimpleNamespace(ds=ds, config=config,
                               orchestrators=_orchestrators(ds, config, self.scenarios))


class DemoCompare(Workload):
    """A pass runs ``sim.run`` under s1-s4, exports each trace as CSV and
    JSON and the summary table as CSV."""

    name = "demo-compare"
    scenarios = tuple(Scenario)

    def __init__(self, root: Path, seed: int, outdir: Path):
        super().__init__(root, seed, outdir)
        files = sorted(p for p in (root / "demo" / "descriptors").iterdir()
                       if p.is_file() and p.suffix in DESCRIPTOR_SUFFIXES)
        self.files = files
        self.names = [str(p) for p in files]
        self.config_path = str(root / "demo" / "config.yaml")

    def setup(self, api) -> SimpleNamespace:
        # The shipped files are read on every set-up, as the CLI does.
        self.texts = [p.read_text(encoding="utf-8") for p in self.files]
        return super().setup(api)

    def config(self, api):
        return api.load_config(self.config_path)

    def run_pass(self, ctx, api, timings) -> PassResult:
        res = PassResult()
        summaries = []
        paths = []
        n_slices = len(ctx.ds.snssais())
        for sc in self.scenarios:
            config = dataclasses.replace(ctx.config, scenario=sc, seed=self.seed,
                                         ticks=DEMO_TICKS)
            csv_path = self.outdir / f"trace-{sc.value}.csv"
            json_path = self.outdir / f"trace-{sc.value}.json"
            timings.start_run()
            trace = api.run(config, ctx.ds)
            api.export(trace, "csv", str(csv_path))
            api.export(trace, "json", str(json_path))
            summary = api.summarize(trace)
            timings.lap(tick=False)
            summaries.append(summary)
            paths += [csv_path, json_path]
            res.ticks += len(trace.rows)
            res.events[sc.value] = sum(len(row.events) for row in trace.rows)
            res.rejections[sc.value] = (summary.rejected, summary.arrived)
            _check_rows(trace, res)
            _add_summary(summary, n_slices, res)
        summary_path = self.outdir / "summary.csv"
        timings.start_run()
        api.export(SummaryTable(summaries), "csv", str(summary_path))
        timings.lap(tick=False)
        digest = hashlib.sha256()
        for path in paths + [summary_path]:
            data = path.read_bytes()
            res.export_bytes += len(data)
            digest.update(data)
        res.digest = digest.hexdigest()
        return res


class K16Pressure(Workload):
    """A pass runs ``sim.run`` and ``summarize`` under s1 and s2."""

    name = "k16-pressure"
    scenarios = (Scenario.S1_DEDICATED, Scenario.S2_ALL_SHARED)

    def __init__(self, root: Path, seed: int, outdir: Path):
        super().__init__(root, seed, outdir)
        self.texts = gen.descriptor_documents(**K16_SHAPE)
        self.names = [f"k16-{i}.yaml" for i in range(len(self.texts))]
        self.config_doc = gen.config_document(seed, K16_SHAPE["n_slices"], K16_TICKS,
                                              **K16_LOAD)

    def run_pass(self, ctx, api, timings) -> PassResult:
        res = PassResult()
        outputs = []
        n_slices = len(ctx.ds.snssais())
        for sc in self.scenarios:
            config = dataclasses.replace(ctx.config, scenario=sc)
            timings.start_run()
            trace = api.run(config, ctx.ds)
            summary = api.summarize(trace)
            timings.lap(tick=False)
            res.ticks += len(trace.rows)
            res.events[sc.value] = sum(len(row.events) for row in trace.rows)
            res.rejections[sc.value] = (summary.rejected, summary.arrived)
            _check_rows(trace, res)
            _add_summary(summary, n_slices, res)
            outputs.append({"trace": trace.to_json_obj(), "summary": summary.to_json_obj()})
        res.digest = hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()).hexdigest()
        return res


class RampScaling(Workload):
    """A pass drives the orchestrators of one set-up, one per scenario,
    through the seeded diurnal schedule; the benchmark times each tick and
    each ``admit_drb`` call itself and checks every tick."""

    name = "ramp-scaling"
    uses_sim_run = False
    scenarios = (Scenario.S1_DEDICATED, Scenario.S4_DU_SHARED)

    def __init__(self, root: Path, seed: int, outdir: Path):
        super().__init__(root, seed, outdir)
        n = RAMP_SHAPE["n_slices"]
        self.texts = gen.descriptor_documents(**RAMP_SHAPE)
        self.names = [f"ramp-{i}.yaml" for i in range(len(self.texts))]
        load = RAMP_LOAD
        # Profiles carry the peak rate; only the schedule below drives arrivals.
        self.config_doc = gen.config_document(seed, n, RAMP_TICKS, load["peak_rate"],
                                              load["holding"], load["throughput_mbps"],
                                              load["k"])
        schedule = gen.ramp_schedule(seed, n, RAMP_TICKS, load["peak_rate"], load["trough"],
                                     load["period"], load["holding"],
                                     [p["mcs"] for p in self.config_doc["profiles"]])
        slices = parse_descriptor_set(self.texts).snssais()
        qos = DrbQos(throughput_mbps=load["throughput_mbps"], latency_ms=20.0, reliability=0.99)
        self.arrivals = [
            [(slices[s], Drb(drb_id=f"{slices[s].key()}:{t}:{i}", snssai=slices[s], qos=qos),
              m, cr, hold)
             for i, (s, m, cr, hold) in enumerate(tick)]
            for t, tick in enumerate(schedule)]

    def run_pass(self, ctx, api, timings) -> PassResult:
        res = PassResult()
        outputs = []
        for sc in self.scenarios:
            before = (res.rejected, res.arrived)
            outputs.append(self._drive(ctx.orchestrators[sc], ctx.config, timings, res))
            res.events[sc.value] = len(ctx.orchestrators[sc].events)
            res.rejections[sc.value] = (res.rejected - before[0], res.arrived - before[1])
        idle = [sc for sc, n in res.events.items() if n == 0]
        if idle:
            res.failed_ticks = res.ticks
            res.problems.append(f"no scaling event in {', '.join(idle)}")
        res.digest = hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()).hexdigest()
        return res

    def _drive(self, orch, config, timings, res: PassResult) -> list:
        total_prbs = config.total_prbs
        slice_budget = config.budget.per_slice_cap
        slices = sorted(orch.subnets, key=lambda s: s.key())
        departures: dict[int, list] = {}
        rows = []
        for t, arrivals in enumerate(self.arrivals):
            admitted = rejected = 0
            tick_start = perf_counter_ns()
            for snssai, drb_id in departures.pop(t, ()):
                orch.depart_drb(snssai, drb_id)
            for snssai, drb, m, cr, hold in arrivals:
                start = perf_counter_ns()
                decision = orch.admit_drb(snssai, drb, m, cr)
                timings.add_admit(perf_counter_ns() - start)
                if decision.admitted:
                    admitted += 1
                    departures.setdefault(t + hold, []).append((snssai, drb.drb_id))
                else:
                    rejected += 1
            alloc = orch.allocate_prbs(total_prbs)
            snapshot = orch.observe_utilization()
            events = orch.apply_scaling_policies()
            timings.add_segment(perf_counter_ns() - tick_start, tick=True)

            problems = []
            if admitted + rejected != len(arrivals):
                problems.append("arrivals not all decided")
            for s in slices:
                if alloc[s] > orch.subnets[s].demand_prbs():
                    problems.append(f"{s} allocated above demand")
            if sum(alloc.values()) > total_prbs:
                problems.append("allocation above the PRB budget")
            for inst in snapshot:
                if inst.shared and not check_isolation(
                        inst.per_slice, CapacityBudget(inst.capacity, slice_budget)).ok:
                    problems.append(f"isolation violated on {inst.instance_id}")
            if problems:
                res.failed_ticks += 1
                res.problems.append(f"{orch.scenario.value} tick {t}: {'; '.join(problems)}")

            vm_count = orch.live_vm_count()
            res.ticks += 1
            res.arrived += len(arrivals)
            res.rejected += rejected
            res.vm_sum += vm_count
            res.vm_n += 1
            for s in slices:
                wait = max(vnic_mean_wait(inst.prbs, config.params) for inst in snapshot
                           if inst.kind == "du" and s in inst.owners)
                res.wait_ms_sum += wait * 1e3
                res.wait_n += 1
            rows.append([t, [alloc[s] for s in slices], admitted, rejected,
                         [str(e) for e in events], vm_count,
                         [[i.instance_id, i.consumption] for i in snapshot]])
            orch.advance_clock()
        return rows


WORKLOADS = {w.name: w for w in (DemoCompare, K16Pressure, RampScaling)}


def make(name: str, root: Path, seed: int, outdir: Path):
    os.makedirs(outdir, exist_ok=True)
    return WORKLOADS[name](root, seed, outdir)
