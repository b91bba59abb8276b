"""Span tracer that wraps oppload's functions from outside the program.

Every traced call becomes a span: its name, its parent span, and its
start and end on ``time.perf_counter``.  Spans are kept in compact arrays
in memory and written out once, at the end of the run.  A span's self
time is its duration minus the durations of its direct children; calls
run on one thread, so children never overlap and the self times of a
span's subtree add up to the span's own duration.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

import numpy as np

from refest import needed_contacts

# (span name, module, function) for the module-level functions wrapped in
# every oppload module that binds them.
FUNCTIONS = (
    ("delivery.delivery_prob_path", "oppload.delivery", "delivery_prob_path"),
    ("delivery.delivery_prob_onehop", "oppload.delivery", "delivery_prob_onehop"),
    ("delivery.availability", "oppload.delivery", "availability"),
    ("heuristic.plan_offload", "oppload.heuristic", "plan_offload"),
    ("heuristic.dijkstra_max_q", "oppload.heuristic", "dijkstra_max_q"),
    ("distributed.on_contact", "oppload.distributed", "on_contact"),
    ("distributed.realtime_adjustment", "oppload.distributed", "realtime_adjustment"),
    ("distributed.criterion_assignment", "oppload.distributed", "criterion_assignment"),
    ("simulator.run_monte_carlo_delivery", "oppload.simulator", "run_monte_carlo_delivery"),
    ("netgraph.generate_synthetic", "oppload.netgraph", "generate_synthetic"),
    ("netgraph.load_network", "oppload.netgraph", "load_network"),
    ("cli.main", "oppload.cli", "main"),
)
# private names with no public entry point: the contact sampler's methods
# (span name, method) and the strategy runner table
SAMPLER_CLASS = "_ContactSampler"
SAMPLER_METHODS = (
    ("simulator.sampler.events", "events"),
    ("simulator.sampler.all_events", "all_events"),
)
RUNNER_TABLE = "_RUNNERS"


class Tracer:
    """Records nested spans and aggregates calls and self time per name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, name id, child seconds]
        self._next_id = 0
        self.root: str | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.root_self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._span_id = array("q")
        self._parent_id = array("q")
        self._name = array("h")
        self._start = array("d")
        self._end = array("d")

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> list:
        frame = [self._next_id, name_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        duration = end - start
        self_time = duration - frame[2]
        name = self.names[frame[1]]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += self_time
        if self.root is not None:
            self.root_self_s[self.root] += self_time
        if stack:
            stack[-1][2] += duration
        self._span_id.append(frame[0])
        self._parent_id.append(stack[-1][0] if stack else -1)
        self._name.append(frame[1])
        self._start.append(start)
        self._end.append(end)

    @contextmanager
    def span(self, name: str, root: bool = False):
        """Span around a block; ``root`` attributes the subtree's self time."""
        previous = self.root
        if root:
            self.root = name
        frame = self._open(self._name_id(name))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())
            self.root = previous

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[tuple, dict, Any, BaseException | None], None] | None = None,
    ) -> Callable:
        """``fn`` traced as span ``name``; ``observe`` sees each call's outcome
        after its span has closed."""
        name_id = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = self._open(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, start, clock())
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            self._close(frame, start, clock())
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return traced

    def span_count(self) -> int:
        return len(self._name)

    def write(self, path: Path) -> None:
        """Write every span as arrays: id, parent, name index, start, end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self._span_id, dtype=np.int64),
            parent_id=np.frombuffer(self._parent_id, dtype=np.int64),
            name=np.frombuffer(self._name, dtype=np.int16),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )


def _tuple_space(args: tuple, kwargs: dict) -> tuple[tuple, int]:
    """(distinct key, tuples enumerated) of a ``delivery_prob_path`` call
    that returned.

    The count is the size of the contact-count tuple space, or 0 when the
    deadline cannot cover the transmission time and the call returns
    before enumerating.  Calls over the cap raise and are counted apart.
    """
    path = args[0] if args else kwargs["path"]
    query = args[1] if len(args) > 1 else kwargs["query"]
    size = query.data_size
    key = (path.hops, size)
    if query.deadline - sum(size / hop.rate for hop in path.hops) <= 0:
        return key, 0
    return key, math.prod(needed_contacts(size, hop.beta) for hop in path.hops)


class OpploadProbe:
    """Installs a tracer's wrappers on one fresh import of oppload."""

    def __init__(self, tracer: Tracer, plan_sink: list) -> None:
        self.tracer = tracer
        self.plan_sink = plan_sink
        self.distinct: set = set()

    def _observe_path(self, args, kwargs, result, exc) -> None:
        counts = self.tracer.counts
        if exc is not None:
            if type(exc).__name__ == "ComplexityError":
                counts["delivery.cap_exceeded"] += 1
            return
        key, tuples = _tuple_space(args, kwargs)
        self.distinct.add(key)
        counts["delivery.delivery_prob_path.tuples"] += tuples

    def _observe_plan(self, args, kwargs, result, exc) -> None:
        if exc is None:
            self.tracer.counts["heuristic.plans_offloaded"] += bool(result.offloaded)
            self.plan_sink.append((args, result))

    def _observe_contact(self, args, kwargs, result, exc) -> None:
        if exc is None and result.transferred > 1e-9:
            self.tracer.counts["distributed.on_contact.transfers"] += 1

    def _observe_events(self, args, kwargs, result, exc) -> None:
        if exc is not None:
            return
        sampler, key = args[0], args[1]
        seen = sampler.__dict__.setdefault("_traced_keys", set())
        if key not in seen:
            seen.add(key)
            self.tracer.counts["simulator.sampler.contacts"] += len(result)

    def install(self) -> None:
        """Wrap the traced names in every loaded ``oppload`` module."""
        modules = [m for n, m in sys.modules.items() if n == "oppload" or n.startswith("oppload.")]
        observers = {
            "delivery.delivery_prob_path": self._observe_path,
            "heuristic.plan_offload": self._observe_plan,
            "distributed.on_contact": self._observe_contact,
            "simulator.sampler.events": self._observe_events,
        }
        for name, module_name, attr in FUNCTIONS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.tracer.absent.add(name)
                continue
            wrapper = self.tracer.wrap(name, fn, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
        simulator = sys.modules.get("oppload.simulator")
        sampler = getattr(simulator, SAMPLER_CLASS, None)
        for name, method in SAMPLER_METHODS:
            fn = getattr(sampler, method, None)
            if fn is None:
                self.tracer.absent.add(name)
                continue
            setattr(sampler, method, self.tracer.wrap(name, fn, observers.get(name)))
        runners = getattr(simulator, RUNNER_TABLE, None)
        if not isinstance(runners, dict):
            self.tracer.absent.add("simulator.run")
            return
        for strategy, fn in list(runners.items()):
            runners[strategy] = self.tracer.wrap(f"simulator.run.{strategy}", fn)

    def finish(self) -> None:
        """Fold this import's distinct (path, size) pairs into the counts."""
        self.tracer.counts["delivery.delivery_prob_path.distinct"] += len(self.distinct)
        self.distinct.clear()
