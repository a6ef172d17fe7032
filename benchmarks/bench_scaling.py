"""Experiment A5 — scaling of the coupled scheduler.

The paper reports 71 iterations / 7 s for 124 operations on a Pentium
133 (§7) and argues the modification does not increase the IFDS
complexity class (§5.3).  This benchmark scales the number of processes
over random workloads and reports operations, iterations, and wall time;
iterations must grow linearly with total mobility, not explode.

Each size is run twice — the brute-force reference oracle
(:class:`~repro.core.reference.ReferenceScheduler`, the ``uncached``
arm) and the production scheduler (the ``cached`` arm) — so the speedup
of the selection engine is measured against a full re-evaluation (see
docs/performance.md).  Decisions are identical in both arms; only the
wall time and the ``force_evaluations`` counter differ.

Runnable standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_scaling.py --processes 2 \
        --out BENCH_scaling.json
"""

import argparse
import json
import pathlib
import time

from conftest import save_artifact
from repro.obs import Tracer

from repro.core.periods import PeriodAssignment
from repro.core.reference import ReferenceScheduler
from repro.core.scheduler import ModuloSystemScheduler
from repro.ir.process import Block, Process, SystemSpec
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.workloads import random_dfg

PROCESS_COUNTS = (2, 4, 6, 8, 12)
OPS_PER_PROCESS = 12
SLACK = 6
PERIOD = 4


def build_system(n_processes, library):
    system = SystemSpec(name=f"scale{n_processes}")
    for index in range(n_processes):
        graph = random_dfg(OPS_PER_PROCESS, seed=1000 + index)
        deadline = graph.critical_path_length(library.latency_of) + SLACK
        process = Process(name=f"p{index}")
        process.add_block(Block(name="main", graph=graph, deadline=deadline))
        system.add_process(process)
    return system


def run_one(n_processes, library, scheduler_class):
    """Schedule one system size; returns a flat metrics dict."""
    system = build_system(n_processes, library)
    assignment = ResourceAssignment.all_global(library, system)
    periods = PeriodAssignment({name: PERIOD for name in assignment.global_types})
    scheduler = scheduler_class(library, tracer=Tracer())
    started = time.perf_counter()
    result = scheduler.schedule(system, assignment, periods)
    elapsed = time.perf_counter() - started
    counters = dict(result.telemetry.get("counters", {}))
    hits = counters.get("force_cache_hits", 0)
    misses = counters.get("force_cache_misses", 0)
    probes = hits + misses
    return {
        "processes": n_processes,
        "operations": system.operation_count,
        "iterations": result.iterations,
        "wall_time": elapsed,
        "area": result.total_area(),
        "force_evaluations": counters.get("force_evaluations", 0),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": (hits / probes) if probes else 0.0,
        "counters": counters,
    }


def run_scaling(process_counts=PROCESS_COUNTS):
    """A/B rows per size: brute-force oracle vs production scheduler."""
    library = default_library()
    rows = []
    for n_processes in process_counts:
        uncached = run_one(n_processes, library, ReferenceScheduler)
        cached = run_one(n_processes, library, ModuloSystemScheduler)
        rows.append({
            "processes": n_processes,
            "operations": uncached["operations"],
            "iterations": uncached["iterations"],
            "area": uncached["area"],
            "uncached": uncached,
            "cached": cached,
            "speedup": (
                uncached["wall_time"] / cached["wall_time"]
                if cached["wall_time"]
                else float("inf")
            ),
            "eval_reduction": (
                uncached["force_evaluations"] / cached["force_evaluations"]
                if cached["force_evaluations"]
                else float("inf")
            ),
        })
    return rows


def format_report(rows):
    lines = [
        "A5: scheduler scaling over random multi-process systems",
        f"({OPS_PER_PROCESS} ops/process, slack {SLACK}, all types global, "
        f"P = {PERIOD})",
        "",
        f"{'procs':>5} {'ops':>5} {'iterations':>11} {'area':>6} "
        f"{'cached_s':>9} {'brute_s':>8} {'speedup':>8} "
        f"{'evals':>7} {'hit%':>6}",
    ]
    for row in rows:
        cached = row["cached"]
        lines.append(
            f"{row['processes']:>5} {row['operations']:>5} "
            f"{row['iterations']:>11} {row['area']:>6g} "
            f"{cached['wall_time']:>9.2f} "
            f"{row['uncached']['wall_time']:>8.2f} "
            f"{row['speedup']:>7.1f}x "
            f"{cached['force_evaluations']:>7} "
            f"{100 * cached['cache_hit_rate']:>5.1f}%"
        )
    lines.append("")
    lines.append("paper reference point: 124 ops, 71 iterations, 7 s (Pentium 133)")
    return "\n".join(lines)


def test_scaling(benchmark):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)

    # Iterations are bounded by total mobility: at most ops * (slack + 1).
    for row in rows:
        assert row["iterations"] <= row["operations"] * (SLACK + 2)
        # Decision parity: the selection engine must not change the
        # schedule.
        assert row["cached"]["iterations"] == row["uncached"]["iterations"]
        assert row["cached"]["area"] == row["uncached"]["area"]

    save_artifact("scaling", format_report(rows), data=rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--processes",
        type=int,
        nargs="+",
        default=list(PROCESS_COUNTS),
        help="system sizes (number of processes) to run",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the machine-readable report to this JSON file",
    )
    args = parser.parse_args(argv)
    rows = run_scaling(tuple(args.processes))
    print(format_report(rows))
    if args.out is not None:
        args.out.write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    return rows


if __name__ == "__main__":
    main()
