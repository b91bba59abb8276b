"""oppload benchmark: strategy replays and estimator validation, end to end
and per layer.

Run from the repository root:

    python3 bench/run.py --workload c7-strategies --seed 1 --seconds 30 --trace 0

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
also replays the first rounds with every layer's calls wrapped in spans
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A results file with the run's provenance, failures, checks and reference
figures is written under ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUPS = 11
STRATEGIES = ("individual", "heuristic", "distributed", "spread", "maxrate")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    *((f"tasks_per_s.{s}", "tasks/s") for s in STRATEGIES if s != "individual"),
    ("tasks_per_s.all", "tasks/s"),
    ("validate_points_per_s", "points/s"),
)

_CALLS_AND_SELF = (
    "delivery.delivery_prob_path",
    "delivery.delivery_prob_onehop",
    "delivery.availability",
    "heuristic.plan_offload",
    "heuristic.dijkstra_max_q",
    "distributed.on_contact",
    "distributed.realtime_adjustment",
    "simulator.sampler.events",
    "simulator.sampler.all_events",
    "simulator.run_monte_carlo_delivery",
)
PER_LAYER = (
    *((f"{n}.{m}", "count" if m == "calls" else "s") for n in _CALLS_AND_SELF for m in ("calls", "self_s")),
    ("delivery.delivery_prob_path.distinct", "count"),
    ("delivery.delivery_prob_path.tuples", "count"),
    ("delivery.cap_exceeded", "count"),
    ("heuristic.plans_offloaded", "count"),
    ("distributed.on_contact.transfers", "count"),
    ("distributed.criterion_assignment.calls", "count"),
    ("simulator.sampler.contacts", "count"),
    *((f"simulator.run.{s}.self_s", "s") for s in STRATEGIES),
    ("netgraph.generate_synthetic.self_s", "s"),
    ("netgraph.load_network.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("tasks_per_s.individual", "tasks/s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` first on the path and import from there only."""
    # one process, no threads of its own: keep numeric libraries single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "oppload" / "__init__.py").is_file():
        raise SystemExit(f"error: no oppload sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import oppload

    if Path(oppload.__file__).resolve().parent != (SRC / "oppload").resolve():
        raise SystemExit(f"error: oppload imported from {oppload.__file__}, not {SRC}")


def _provenance(args) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "oppload").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _setup_times(workload, fresh_oppload, count: int) -> list:
    """Set up ``count`` times: fresh import, network generation, input files."""
    from gauge import Timing

    timings = []
    for _ in range(count):
        timings.append(Timing())
        with workload.gauge.time(timings[-1]):
            workload.write_inputs(fresh_oppload())
    return timings


def _run_untraced(workload, fresh_oppload, seconds: float, min_rounds: int) -> list[dict]:
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(fresh_oppload(), len(rounds)))
    return rounds


def _run_traced(workload, fresh_oppload, count: int, tracer, plans) -> list[dict]:
    from tracer import OpploadProbe

    workload.clock.tracer = tracer
    rounds = []
    ol = fresh_oppload()
    probe = OpploadProbe(tracer, plans)
    probe.install()
    with tracer.span("bench.setup"):
        workload.write_inputs(ol)
    probe.finish()
    for index in range(count):
        ol = fresh_oppload()
        probe.install()
        with tracer.span("bench.round"):
            rounds.append(workload.run_round(ol, index))
        probe.finish()
    workload.clock.tracer = None
    return rounds


def _end_to_end(workload, setups, field: str) -> dict:
    """End-to-end figures from ``scaled`` (reported) or ``wall`` seconds."""
    clock = workload.clock
    values = {
        "setup_s": statistics.median(getattr(t, field) for t in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for strategy in STRATEGIES:
        seconds = getattr(clock.timing[strategy], field)
        values[f"tasks_per_s.{strategy}"] = clock.attempted[strategy] / seconds if seconds else 0.0
    values["tasks_per_s.all"] = workload.replay_pairs / getattr(workload.replay_timing, field)
    values["validate_points_per_s"] = workload.validate.points / getattr(
        workload.validate.timing, field
    )
    return values


def _per_layer(tracer, clock, untraced_wall: float, traced_wall: float) -> dict:
    values = {}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tracer.calls.get(base, 0)
        elif field == "self_s":
            values[name] = tracer.self_s.get(base, 0.0)
        else:
            values[name] = tracer.counts.get(name, 0)
    values["tasks_per_s.individual"] = (
        clock.traced_tasks["individual"] / tracer.total_s["strategy.individual"]
    )
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    return values


def _wall(rounds) -> float:
    return sum(r["wall_s"] for r in rounds)


def _self_time_closure(tracer, problems) -> dict:
    """Per strategy: its calls' traced wall time vs the self times beneath them."""
    table = {}
    for strategy in STRATEGIES:
        wall = tracer.total_s.get(f"strategy.{strategy}", 0.0)
        spans = tracer.root_self_s.get(f"strategy.{strategy}", 0.0)
        table[strategy] = {"wall_s": wall, "self_sum_s": spans}
        if wall > 0 and abs(spans - wall) > 0.01 * wall:
            problems.add(f"{strategy}: self times sum to {spans}, traced wall {wall}")
    return table


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from checks import Problems, check_plan
    from workloads import NETWORK, WORKLOADS, fresh_oppload

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems = Problems()
    workload = WORKLOADS[args.workload](args.seed, workdir, problems)
    report = _provenance(args)
    report["network"] = NETWORK

    traced_rounds = workload.trace_rounds if args.trace else 0
    workload.gauge.start()
    try:
        first_setup = _setup_times(workload, fresh_oppload, 1)[0]
        rounds = _run_untraced(workload, fresh_oppload, args.seconds, traced_rounds)
        # timed set-ups run last, once the gauge's readings describe the run
        setups = _setup_times(workload, fresh_oppload, SETUPS)
    finally:
        workload.gauge.stop()
    report["gauge"] = {
        "probes": workload.gauge.probes,
        "mean_probe_s": workload.gauge.probe_sum_s / workload.gauge.probes,
    }
    metrics_units = dict(END_TO_END)
    metrics = _end_to_end(workload, setups, "scaled")
    report["unscaled_end_to_end"] = _end_to_end(workload, setups, "wall")

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        plans = []
        traced = _run_traced(workload, fresh_oppload, traced_rounds, tracer, plans)
        for index, (plain, with_spans) in enumerate(zip(rounds, traced)):
            if plain["signature"] != with_spans["signature"]:
                problems.add(f"round {index}: outcomes differ between untraced and traced runs")
        for args_, plan in plans:
            network, source, total, deadline = args_[:4]
            check_plan(workload.net, source, total, deadline, plan, problems)
        report["trace"] = {
            "rounds": traced_rounds,
            "spans": tracer.span_count(),
            "absent": sorted(tracer.absent),
            "self_time_closure": _self_time_closure(tracer, problems),
            "protocol_events_audited": workload.clock.audit.events,
            "plans_checked": len(plans),
        }
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics_units = dict(PER_LAYER)
        metrics = _per_layer(tracer, workload.clock, _wall(rounds[:traced_rounds]), _wall(traced))
        rounds = rounds + traced

    clock = workload.clock
    attempted = sum(clock.attempted.values()) + workload.validate.points
    failed = sum(clock.failed.values()) + workload.validate.failed
    report.update(
        {
            "rounds": len(rounds),
            "first_setup_wall_s": first_setup.wall,
            "setup_wall_s": [t.wall for t in setups],
            "strategies": {
                s: {
                    "attempted": clock.attempted[s],
                    "failed": clock.failed[s],
                    "errors": dict(clock.errors[s]),
                    "wall_s": clock.timing[s].wall,
                }
                for s in STRATEGIES
            },
            "validate": {
                "attempted": workload.validate.points,
                "failed": workload.validate.failed,
                "errors": dict(workload.validate.errors),
                "calls": workload.validate.calls,
                "wall_s": workload.validate.timing.wall,
            },
            "checks": workload.finish_checks(),
            "reference_figures": workload.audit.figures(),
            "problems": list(problems),
            "problem_count": problems.total,
            "metrics": metrics,
        }
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": problems.total == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in metrics_units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
