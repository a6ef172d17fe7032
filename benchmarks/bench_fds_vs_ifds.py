"""Experiment A13 — FDS vs IFDS: the gradual-reduction trade-off (§4).

The paper's §4: "the original algorithm places all operations onto all
time steps within their time frames.  The improved algorithm only
investigates the time steps at the outmost ends of the time frames."
Measured consequence: FDS's per-iteration work grows with the frame
widths (it evaluates every step of every mobile frame) while IFDS's
stays at two evaluations per mobile operation — at the price of many
more (single-step) iterations.  The gradual reduction is what the
modulo modification needs: it never commits an operation outright, so
cross-process coupling effects can keep steering every frame until the
end.  Schedule quality is equal here.
"""

import time

from conftest import save_artifact

from repro.ir.process import Block
from repro.obs import Tracer
from repro.resources.library import default_library
from repro.scheduling.fds import ForceDirectedScheduler
from repro.scheduling.ifds import ImprovedForceDirectedScheduler
from repro.workloads import elliptic_wave_filter

DEADLINES = (18, 21, 24)


def run_comparison():
    """Per deadline and scheduler: evaluated placements (the count of the
    ``force_eval_seconds`` histogram, one record per tentative start
    step), iterations, seconds and area."""
    library = default_library()
    rows = []
    for deadline in DEADLINES:
        entry = {"deadline": deadline}
        for label, scheduler_cls in (
            ("fds", ForceDirectedScheduler),
            ("ifds", ImprovedForceDirectedScheduler),
        ):
            block = Block(
                name="ewf", graph=elliptic_wave_filter(), deadline=deadline
            )
            tracer = Tracer()
            started = time.perf_counter()
            schedule = scheduler_cls(library, tracer=tracer).schedule(block)
            elapsed = time.perf_counter() - started
            schedule.validate()
            peaks = schedule.peaks()
            histograms = tracer.metrics.histograms_dict()
            entry[label] = {
                "evaluations": histograms["force_eval_seconds"]["count"],
                "iterations": schedule.iterations,
                "seconds": elapsed,
                "area": peaks.get("adder", 0) + 4 * peaks.get("multiplier", 0),
            }
        rows.append(entry)
    return rows


def test_fds_vs_ifds(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    for entry in rows:
        fds, ifds = entry["fds"], entry["ifds"]
        per_iter_fds = fds["evaluations"] / max(1, fds["iterations"])
        per_iter_ifds = ifds["evaluations"] / max(1, ifds["iterations"])
        # IFDS evaluates only the frame ends: bounded per-iteration work.
        assert per_iter_ifds < per_iter_fds
        # Quality stays in the same class.
        assert ifds["area"] <= fds["area"] + 4
    # FDS's per-iteration cost grows with mobility; IFDS's stays ~flat.
    fds_growth = [e["fds"]["evaluations"] / e["fds"]["iterations"] for e in rows]
    assert fds_growth == sorted(fds_growth)

    lines = [
        "A13: classic FDS vs IFDS on the elliptic wave filter",
        "",
        f"{'deadline':>8} {'FDS ev/it':>10} {'IFDS ev/it':>11} "
        f"{'FDS iters':>10} {'IFDS iters':>11} {'FDS area':>9} {'IFDS area':>10}",
    ]
    for entry in rows:
        fds, ifds = entry["fds"], entry["ifds"]
        lines.append(
            f"{entry['deadline']:>8} "
            f"{fds['evaluations'] / fds['iterations']:>10.1f} "
            f"{ifds['evaluations'] / ifds['iterations']:>11.1f} "
            f"{fds['iterations']:>10} {ifds['iterations']:>11} "
            f"{fds['area']:>9} {ifds['area']:>10}"
        )
    lines.append("")
    lines.append(
        "IFDS bounds per-iteration work at two frame-end evaluations per "
        "mobile op (vs. every step of every frame for FDS) and never "
        "commits an operation outright - the property the modulo coupling "
        "needs; schedule quality is identical"
    )
    save_artifact("fds_vs_ifds", "\n".join(lines))
