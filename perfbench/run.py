"""Run one ranslice benchmark workload and print its metrics.

    python3 perfbench/run.py --workload demo-compare --seed 1 --seconds 55 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory. The run generates its inputs from ``--seed``, repeats one pass
of the workload for ``--seconds`` seconds in this single process (closed
loop: each call starts when the previous one returned), checks every
tick and that every pass gives byte-identical output, and prints the
metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts checked ticks and ``failed`` those whose checks
failed, or that belong to a pass that raised or whose output differs
from the first pass. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the run spends the first half untraced and the
second half with spans on every layer, and prints the per-layer metrics
(per pass) and the tracing overhead. Spans are written to
``.perfbench_out/`` in the repository root.

Exit status 0 when a result was printed, 1 when no pass completed, 2
when the program or its demo inputs are not beside this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# k16-pressure is not listed in BENCHMARK.json, so it has no gated bound:
# its host times follow the load of a shared machine too closely (see
# README.md). It stays runnable for its exact per-layer counts.
WORKLOADS = ("demo-compare", "k16-pressure", "ramp-scaling")
DEFAULT_SEED = 1
# Set-ups timed before each untraced pass (the last one feeds the pass),
# so the set-up median has samples spread over the whole run. A traced
# pass has one, so that per-pass layer numbers hold one set-up.
SETUPS_PER_PASS = 2

END_TO_END_UNITS = {
    "ticks_per_s": "1/s",
    "tick_ms_p50": "ms",
    "tick_ms_p90": "ms",
    "admit_us_p50": "us",
    "admit_us_p90": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rejection_rate": "ratio",
    "mean_vm_count": "count",
    "mean_vnic_wait_ms": "ms",
}

# Span and counter names of each per-layer metric; times and counts are
# per pass, so they are exact per workload and seed.
SPAN_SELF_S = {
    "descriptors.parse_s": "descriptors.parse",
    "descriptors.validate_s": "descriptors.validate",
    "config.load_s": "config.load",
    "topology.graph_s": "topology.graph",
    "orchestrator.instantiate_s": "orchestrator.instantiate",
    "orchestrator.admit_s": "orchestrator.admit",
    "orchestrator.depart_s": "orchestrator.depart",
    "orchestrator.allocate_s": "orchestrator.allocate",
    "orchestrator.observe_s": "orchestrator.observe",
    "orchestrator.policy_s": "orchestrator.policy",
    "sim.run_self_s": "sim.run",
    "sim.summarize_s": "sim.summarize",
    "sim.export_s": "sim.export",
}
SPAN_CALLS = {
    "descriptors.validate_calls": "descriptors.validate",
    "orchestrator.admit_calls": "orchestrator.admit",
    "orchestrator.allocate_calls": "orchestrator.allocate",
}
COUNTS = ("orchestrator.scaling_events", "resources.consumption_calls",
          "resources.isolation_checks", "resources.vnic_wait_calls")
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_SELF_S},
    **{name: "count" for name in (*SPAN_CALLS, *COUNTS)},
    "orchestrator.admit_accept_ratio": "ratio",
    "resources.isolation_fail_ratio": "ratio",
    "sim.export_bytes": "bytes",
    "tracing.ticks_per_s_untraced": "1/s",
    "tracing.ticks_per_s_traced": "1/s",
    "tracing.overhead_ratio": "ratio",
}


def load_program() -> None:
    """Put ``src/`` first on the path and make sure ``ranslice`` and the
    demo come from this checkout, not from an installed copy."""
    package = SRC / "ranslice"
    demo = ROOT / "demo"
    if not (package / "__init__.py").is_file() or not (demo / "config.yaml").is_file():
        print(f"perfbench: no ranslice sources or demo inputs under {ROOT}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ranslice
    if Path(ranslice.__file__).resolve().parent != package.resolve():
        print(f"perfbench: ranslice imported from {ranslice.__file__}, not {package}",
              file=sys.stderr)
        raise SystemExit(2)


def percentile(samples: list[int], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Measurement:
    """Repeats set-up plus one pass until a deadline and keeps the totals."""

    def __init__(self, workload, timings):
        self.workload = workload
        self.timings = timings
        self.setup_ns: list[int] = []
        self.reference = None     # first pass; later passes must match its digest
        self.attempted = 0
        self.failed = 0
        self.broken = False       # a pass raised; no further passes are run

    def timed_setup(self, api):
        # Collect the previous pass's garbage first, so that a collection
        # it left pending does not land in the set-up being timed.
        gc.collect()
        start = perf_counter_ns()
        ctx = self.workload.setup(api)
        self.setup_ns.append(perf_counter_ns() - start)
        return ctx

    def passes(self, api, deadline_ns: int, setups: int) -> int:
        """Run passes, each after ``setups`` timed set-ups, until the
        next one would end past the deadline (at least one); returns how
        many. Stopping short keeps a run within its ``--seconds``."""
        n = 0
        while not self.broken:
            began = perf_counter_ns()
            try:
                ctx = None
                for _ in range(setups):
                    ctx = self.timed_setup(api)
                self.timings.begin_pass()
                res = self.workload.run_pass(ctx, api, self.timings)
                self.timings.end_pass()
            except Exception:
                traceback.print_exc()
                self.broken = True
                lost = self.reference.ticks if self.reference is not None else 1
                self.attempted += lost
                self.failed += lost
                break
            if self.reference is None:
                self.reference = res
            elif res.digest != self.reference.digest:
                res.failed_ticks = res.ticks
                res.problems.append("output differs from the first pass")
            for problem in res.problems[:5]:
                print(f"check failed: {problem}", file=sys.stderr)
            self.attempted += res.ticks
            self.failed += res.failed_ticks
            n += 1
            now = perf_counter_ns()
            if now + (now - began) >= deadline_ns:
                break
        return n

    def ticks_per_s(self) -> float:
        return self.reference.ticks / (self.timings.work_ns() / 1e9)


def end_to_end(m: Measurement) -> dict[str, float]:
    ref = m.reference
    timings = m.timings
    ticks = timings.tick_ns()
    admits = timings.best_admits
    return {
        "ticks_per_s": m.ticks_per_s(),
        "tick_ms_p50": percentile(ticks, 50) / 1e6,
        "tick_ms_p90": percentile(ticks, 90) / 1e6,
        "admit_us_p50": percentile(admits, 50) / 1e3,
        "admit_us_p90": percentile(admits, 90) / 1e3,
        "setup_s": statistics.median(m.setup_ns) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rejection_rate": ref.rejected / ref.arrived,
        "mean_vm_count": ref.vm_sum / ref.vm_n,
        "mean_vnic_wait_ms": ref.wait_ms_sum / ref.wait_n,
    }


def per_layer(tracer, n_passes: int, untraced_tps: float, traced_tps: float,
              export_bytes: int) -> dict[str, float]:
    out = {}
    for name, span in SPAN_SELF_S.items():
        out[name] = tracer.self_ns[span] / 1e9 / n_passes
    for name, span in SPAN_CALLS.items():
        out[name] = tracer.calls[span] / n_passes
    for name in COUNTS:
        out[name] = tracer.counts[name] / n_passes
    admits = tracer.calls["orchestrator.admit"]
    checks = tracer.counts["resources.isolation_checks"]
    out["orchestrator.admit_accept_ratio"] = (
        tracer.counts["orchestrator.admitted"] / admits if admits else 0.0)
    out["resources.isolation_fail_ratio"] = (
        tracer.counts["resources.isolation_fails"] / checks if checks else 0.0)
    out["sim.export_bytes"] = export_bytes
    out["tracing.ticks_per_s_untraced"] = untraced_tps
    out["tracing.ticks_per_s_traced"] = traced_tps
    out["tracing.overhead_ratio"] = untraced_tps / traced_tps - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    load_program()
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    metrics = None
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        start = perf_counter_ns()
        workload = workloads.make(args.workload, ROOT, args.seed, scratch)
        timings = tracing.Timings()
        m = Measurement(workload, timings)
        plain = workloads.program_api()
        deadline = start + int(args.seconds * 1e9)
        with tracing.installed(timings.replacements() if workload.uses_sim_run else []):
            if not args.trace:
                if m.passes(plain, deadline, SETUPS_PER_PASS):
                    metrics = end_to_end(m)
                    units = END_TO_END_UNITS
            elif m.passes(plain, start + int(args.seconds * 1e9 / 2), 1):
                untraced_tps = m.ticks_per_s()
                timings.reset()
                tracer = tracing.Tracer()
                with tracing.traced_program(tracer):
                    n_traced = m.passes(workloads.program_api(tracer), deadline, 1)
                if n_traced:
                    metrics = per_layer(tracer, n_traced, untraced_tps, m.ticks_per_s(),
                                        m.reference.export_bytes)
                    units = PER_LAYER_UNITS
                    spans = OUT / f"spans-{args.workload}-{args.seed}.tsv"
                    tracer.write(str(spans))
                    print(f"spans: {len(tracer.spans)} written to {spans}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if metrics is None:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    finite = all(math.isfinite(v) for v in metrics.values())
    correct = m.failed == 0 and finite
    ref = m.reference
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"output_sha256 {ref.digest}")
    for sc, n in ref.events.items():
        rejected, arrived = ref.rejections[sc]
        print(f"scenario {sc}: {n} scaling events, {rejected}/{arrived} arrivals rejected")
    print(f"failed_ops {m.failed}/{m.attempted} ticks; {len(m.setup_ns)} set-ups; "
          f"per pass {len(timings.tick_ns())} tick and {len(timings.best_admits)} admit "
          f"latency samples, each the fastest of its index over the passes")
    if not args.trace:
        # p99 rests on the slowest 1% of samples, which a busy machine
        # still slows in every pass; it is shown, not gated.
        print(f"ungated tick_ms_p99 {percentile(timings.tick_ns(), 99) / 1e6:.6g} ms "
              f"admit_us_p99 {percentile(timings.best_admits, 99) / 1e3:.6g} us")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
