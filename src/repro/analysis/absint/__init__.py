"""Residue-pressure abstract interpretation over the system IR.

A sound middle layer between the averaging bounds
(:mod:`repro.analysis.bounds`) and the exact symbolic certifier
(:mod:`repro.analysis.static.certifier`): per (resource type, slot
residue class) under the eq. 2-3 period grid, the analysis computes
lower/upper occupancy intervals valid for *any* grid-admissible
schedule (see docs/analysis.md):

* :func:`analyze_problem` — scheduler-free, from mobility windows;
* :func:`analyze_schedule` — exact fold of one finished schedule;
* :func:`extract_bottleneck_cone` — the ops/blocks/edges pinning the
  tightest interval, with the certifier's conflict triple attached.

Consumers: sweep pruning (`analysis.bounds`), the certifier's interval
fast path, the ``LINT3xx`` pressure rules, and ``repro analyze``.
"""

from ..._lazy import attach

_EXPORTS = {
    "analyze": [
        "MODEL_ANY",
        "MODEL_DEPLOYED",
        "analyze_problem",
        "analyze_schedule",
        "forced_process_bound",
        "interval_pool_bound",
        "join_rotations",
    ],
    "cone": ["ConeOp", "SubgraphExtract", "extract_bottleneck_cone"],
    "domain": [
        "ABSINT_FORMAT",
        "ABSINT_VERSION",
        "AbsIntResult",
        "MODE_PROBLEM",
        "MODE_SCHEDULE",
        "ProcessPressure",
        "TypePressure",
    ],
    "transfer": [
        "DEFAULT_WIDEN_FLOOR",
        "block_step_profiles",
        "effective_busy",
        "fold_profiles",
        "mobility_frames",
    ],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
