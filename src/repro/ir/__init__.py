"""Intermediate representation: operations, dataflow graphs, processes."""

from .._lazy import attach

_EXPORTS = {
    "behavior": ["BehaviorParser", "parse_behavior"],
    "dfg": ["DataFlowGraph"],
    "expr": ["ExprBuilder", "Value"],
    "operation": ["OpKind", "Operation"],
    "process": ["Block", "Process", "SystemSpec"],
}

__getattr__, __dir__, __all__ = attach(
    __name__, _EXPORTS, submodules=["systemio", "textio"]
)
