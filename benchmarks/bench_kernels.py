"""Kernel microbenchmarks → BENCH_kernel.json.

Measures the batched array kernels (:mod:`repro.scheduling.kernels`)
against their scalar reference paths on identical inputs harvested from
real scheduling states, per system size:

* **modulo_max** — :func:`repro.core.modulo.modulo_max_rows` (one
  reshape-max pass over a row matrix) vs the per-row
  :func:`modulo_max_reference` stride loop;
* **force_fold** — :meth:`PlacementKernel.forces` (one call per block
  over every step of every mobile frame, the batch FDS builds per
  iteration) vs one ``placement_force`` call per (op, step).

Both arms of every comparison compute the same values (pinned by
``tests/scheduling/test_kernels.py``); only wall time differs, taken
best-of-``--repeats`` to suppress machine noise.  Scalar arms loop
enough iterations to stay well above the regression gate's noise
floor.  Runnable standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_kernels.py --processes 6 \
        --repeats 2 --out BENCH_kernel.json
"""

import argparse
import json
import pathlib
import time

import numpy as np

from conftest import save_artifact
from repro.core.modulo import modulo_max_reference, modulo_max_rows
from repro.resources.library import default_library
from repro.scheduling.forces import placement_force
from repro.scheduling.kernels import PlacementKernel
from repro.scheduling.state import BlockState

from bench_scaling import PERIOD, build_system

PROCESS_COUNTS = (6, 12)

#: Scalar-arm loop counts, sized so every scalar measurement clears the
#: regression gate's 0.05 s noise floor with margin at 6 processes.
LOOPS = {"modulo_max": 20, "force_fold": 16}


def _time(fn, loops):
    started = time.perf_counter()
    for _ in range(loops):
        fn()
    return time.perf_counter() - started


def block_states(n_processes, library):
    system = build_system(n_processes, library)
    return [
        BlockState(block, library)
        for process in system.processes
        for block in process.blocks
    ]


def harvest(n_processes, library):
    """Shared micro-inputs: whole-frame candidate batches and the
    displacement rows of their placements."""
    states = block_states(n_processes, library)
    candidates = []  # (state, [(op, step), ...]) whole-frame batches
    for state in states:
        batch = []
        for op_id in state.frames.unfixed():
            if op_id not in state.guarded_ops:
                lo, hi = state.frames.frame(op_id)
                batch.extend((op_id, step) for step in range(lo, hi + 1))
        if batch:
            candidates.append((state, batch))
    # Per block and displaced type, one row per candidate: its
    # displacement, or zeros where it does not displace the type.
    matrices = []
    for state, batch in candidates:
        by_type = {}
        for row, (op_id, step) in enumerate(batch):
            for type_name, delta in state.placement_deltas(op_id, step).items():
                matrix = by_type.get(type_name)
                if matrix is None:
                    matrix = np.zeros((len(batch), state.dist.horizon))
                    by_type[type_name] = matrix
                matrix[row] = delta
        matrices.extend(by_type.values())
    # Block horizons differ; zero-pad to one width (zeros are inert
    # under the modulo fold, and both arms see identical rows).
    width = max(matrix.shape[1] for matrix in matrices)
    rows = np.zeros((sum(matrix.shape[0] for matrix in matrices), width))
    offset = 0
    for matrix in matrices:
        rows[offset : offset + matrix.shape[0], : matrix.shape[1]] = matrix
        offset += matrix.shape[0]
    return candidates, rows


def bench_kernels_at(n_processes, library, repeats):
    """Per-kernel scalar-vs-vector wall times at one system size."""
    candidates, rows = harvest(n_processes, library)
    results = []

    def record(name, batch, scalar_fn, vector_fn):
        loops = LOOPS[name]
        scalar = min(_time(scalar_fn, loops) for _ in range(repeats))
        vector = min(_time(vector_fn, loops) for _ in range(repeats))
        results.append(
            {
                "name": name,
                "processes": n_processes,
                "batch": batch,
                "loops": loops,
                "scalar_seconds": scalar,
                "vector_seconds": vector,
                "speedup": scalar / vector if vector else float("inf"),
            }
        )

    record(
        "modulo_max",
        int(rows.shape[0]),
        lambda: [modulo_max_reference(row, PERIOD) for row in rows],
        lambda: modulo_max_rows(rows, PERIOD),
    )

    n_candidates = sum(len(batch) for _state, batch in candidates)
    kernels = [(PlacementKernel(state), batch) for state, batch in candidates]
    record(
        "force_fold",
        n_candidates,
        lambda: [
            placement_force(state, op_id, step)
            for state, batch in candidates
            for op_id, step in batch
        ],
        lambda: [kernel.forces(batch) for kernel, batch in kernels],
    )
    return results


def run_bench(process_counts=PROCESS_COUNTS, *, repeats=3):
    library = default_library()
    kernels = []
    for n_processes in process_counts:
        kernels.extend(bench_kernels_at(n_processes, library, repeats))
    return {
        "config": {"repeats": repeats, "period": PERIOD,
                   "processes": list(process_counts)},
        "kernels": kernels,
    }


def format_report(report):
    lines = [
        "Batched force kernels: scalar vs vector (best-of-"
        f"{report['config']['repeats']})",
        "",
        f"{'kernel':>18} {'procs':>5} {'batch':>6} {'scalar_s':>9} "
        f"{'vector_s':>9} {'speedup':>8}",
    ]
    for row in report["kernels"]:
        lines.append(
            f"{row['name']:>18} {row['processes']:>5} {row['batch']:>6} "
            f"{row['scalar_seconds']:>9.3f} {row['vector_seconds']:>9.3f} "
            f"{row['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def test_kernels(benchmark):
    report = benchmark.pedantic(
        lambda: run_bench((6,), repeats=2), rounds=1, iterations=1
    )
    for row in report["kernels"]:
        # The pure-array kernel must win outright; the force fold
        # still pays per-candidate Python work to build each block's
        # batch, so "no slower than scalar with margin" is the
        # invariant.
        if row["name"] == "modulo_max":
            assert row["vector_seconds"] < row["scalar_seconds"], row["name"]
        else:
            assert (
                row["vector_seconds"] < row["scalar_seconds"] * 1.5
            ), row["name"]
    save_artifact("kernels", format_report(report), data=report)


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
        "--repeats",
        type=int,
        default=3,
        help="best-of repeats per measurement (suppresses machine noise)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the machine-readable report to this JSON file",
    )
    args = parser.parse_args(argv)
    report = run_bench(tuple(args.processes), repeats=args.repeats)
    print(format_report(report))
    if args.out is not None:
        args.out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
    return report


if __name__ == "__main__":
    main()
