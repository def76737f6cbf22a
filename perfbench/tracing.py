"""Spans and counters recorded from outside the program.

Nothing under ``src/`` is edited: the tracer replaces, for the traced
half of a run, the ``Orchestrator`` methods and the names that
``ranslice.sim`` and ``ranslice.orchestrator`` import, and puts the
originals back afterwards. Calls the benchmark makes itself (parse,
config load, ``sim.run``, ``summarize``, ``export``) go through the same
span wrapper. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable

import ranslice.orchestrator as orch_mod
import ranslice.sim as sim_mod
from ranslice.orchestrator import Orchestrator

# Layer span names for the Orchestrator methods.
ORCH_SPANS = {
    "__init__": "orchestrator.instantiate",
    "instantiate_subnet": "orchestrator.instantiate",
    "admit_drb": "orchestrator.admit",
    "depart_drb": "orchestrator.depart",
    "allocate_prbs": "orchestrator.allocate",
    "observe_utilization": "orchestrator.observe",
    "apply_scaling_policies": "orchestrator.policy",
}


class Tracer:
    """Nested spans with self time per name, plus plain counters.

    A span's self time is its duration minus the time covered by the
    spans it directly encloses."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []  # name, parent, start, end
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []        # ids of open spans
        self._child_ns: list[int] = []    # time covered by children, per open span

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(sid)
            self._child_ns.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._open.pop()
                child = self._child_ns.pop()
                dur = end - start
                self.self_ns[name] += dur - child
                self.calls[name] += 1
                if self._child_ns:
                    self._child_ns[-1] += dur
                self.spans[sid] = (name, parent, start, end)
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def write(self, path: str) -> None:
        """One span per line: id, parent id, name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                if span is not None:
                    name, parent, start, end = span
                    fh.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\n")


def _counted_admit(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def admit(*args, **kwargs):
        decision = fn(*args, **kwargs)
        if decision.admitted:
            tracer.counts["orchestrator.admitted"] += 1
        return decision
    return admit


def _counted_policy(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def policy(*args, **kwargs):
        events = fn(*args, **kwargs)
        tracer.counts["orchestrator.scaling_events"] += len(events)
        return events
    return policy


def _counted_isolation(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def check(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.counts["resources.isolation_checks"] += 1
        if not result.ok:
            tracer.counts["resources.isolation_fails"] += 1
        return result
    return check


def _replacements(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    out = []
    for attr, span in ORCH_SPANS.items():
        fn = getattr(Orchestrator, attr)
        if attr == "admit_drb":
            fn = _counted_admit(tracer, fn)
        elif attr == "apply_scaling_policies":
            fn = _counted_policy(tracer, fn)
        out.append((Orchestrator, attr, tracer.wrap(span, fn)))
    for mod in (orch_mod, sim_mod):
        out.append((mod, "validate", tracer.wrap("descriptors.validate", mod.validate)))
        out.append((mod, "check_isolation", _counted_isolation(tracer, mod.check_isolation)))
        out.append((mod, "vnic_mean_wait",
                    tracer.count("resources.vnic_wait_calls", mod.vnic_mean_wait)))
    for name in ("du_vcpu_consumption", "cu_vcpu_consumption"):
        out.append((orch_mod, name,
                    tracer.count("resources.consumption_calls", getattr(orch_mod, name))))
    out.append((sim_mod, "build_instance_graph",
                tracer.wrap("topology.graph", sim_mod.build_instance_graph)))
    return out


@contextlib.contextmanager
def installed(replacements: list[tuple[object, str, Callable]]):
    """Set each (owner, attribute, value) and restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def traced_program(tracer: Tracer):
    """Context in which the program's layers report to ``tracer``."""
    return installed(_replacements(tracer))


class Timings:
    """Host timings of passes, aligned by index across passes.

    Every pass of a run repeats the same work, so the i-th timed segment
    (a tick, or the stretch of a run before its first or after its last
    tick) and the j-th ``admit_drb`` call of one pass do the same work as
    those of every other pass. The fastest sample per index is kept: it
    drops the slow-downs that other tenants of a shared machine cause
    for seconds at a time, which would otherwise swamp a change in the
    program. Segments cover the work of a pass, set-up and checks
    excluded.
    """

    def __init__(self):
        self.best_segments: list[int] | None = None
        self.best_admits: list[int] | None = None
        self.tick_mask: list[bool] = []
        self._segments: list[int] = []
        self._is_tick: list[bool] = []
        self._admits: list[int] = []
        self._last = 0
        self._first_tick = True

    def reset(self) -> None:
        self.best_segments = self.best_admits = None

    def begin_pass(self) -> None:
        self._segments, self._is_tick, self._admits = [], [], []

    def add_segment(self, ns: int, tick: bool) -> None:
        self._segments.append(ns)
        self._is_tick.append(tick)

    def add_admit(self, ns: int) -> None:
        self._admits.append(ns)

    def start_run(self) -> None:
        """Start timing one ``sim.run`` call; its first tick also carries
        the run's own set-up and is not a tick sample."""
        self._last = perf_counter_ns()
        self._first_tick = True

    def lap(self, tick: bool) -> None:
        now = perf_counter_ns()
        self.add_segment(now - self._last, tick)
        self._last = now

    def end_pass(self) -> None:
        """Fold the pass into the per-index minima."""
        if self.best_segments is None:
            self.best_segments, self.best_admits = self._segments, self._admits
            self.tick_mask = self._is_tick
        elif (len(self._segments) != len(self.best_segments)
              or len(self._admits) != len(self.best_admits)):
            raise ValueError("timed segments differ between passes of one run")
        else:
            self.best_segments = list(map(min, self.best_segments, self._segments))
            self.best_admits = list(map(min, self.best_admits, self._admits))

    def work_ns(self) -> int:
        return sum(self.best_segments)

    def tick_ns(self) -> list[int]:
        return [ns for ns, tick in zip(self.best_segments, self.tick_mask) if tick]

    def replacements(self) -> list[tuple[object, str, Callable]]:
        """Time ``admit_drb`` calls and ticks inside ``sim.run``, where the
        benchmark cannot time them itself: a tick ends at
        ``advance_clock``."""
        admit_drb = Orchestrator.admit_drb
        advance_clock = Orchestrator.advance_clock

        def timed_admit(*args, **kwargs):
            start = perf_counter_ns()
            decision = admit_drb(*args, **kwargs)
            self._admits.append(perf_counter_ns() - start)
            return decision

        def timed_advance(*args, **kwargs):
            self.lap(tick=not self._first_tick)
            self._first_tick = False
            return advance_clock(*args, **kwargs)

        return [(Orchestrator, "admit_drb", timed_admit),
                (Orchestrator, "advance_clock", timed_advance)]
