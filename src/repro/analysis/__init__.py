"""Evaluation harness: metrics, tables, comparisons, attribution."""

from .._lazy import attach

_EXPORTS = {
    "attribution": [
        "AttributionReport",
        "BottleneckEntry",
        "ContributingOp",
        "attribute",
    ],
    "bounds": ["block_bound", "bound_report", "global_pool_bound", "process_bound"],
    "compare": ["Comparison", "compare_scopes"],
    "export": ["export_result", "result_to_dict", "result_to_json"],
    "gantt": ["block_gantt", "system_gantt", "usage_gantt"],
    "interconnect": [
        "InterconnectReport",
        "interconnect_report",
        "total_area_with_interconnect",
    ],
    "metrics": [
        "AreaItem",
        "area_breakdown",
        "mobility_histogram",
        "static_utilization",
    ],
    "report": ["RunReport", "run_report"],
    "tables": ["table1", "usage_table"],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
