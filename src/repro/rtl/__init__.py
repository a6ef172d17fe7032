"""RTL backend: controllers, datapath units, authorization ROMs, HDL text."""

from .._lazy import attach

_EXPORTS = {
    "design": ["ControllerSpec", "IssueSpec", "RTLDesign", "UnitSpec", "build_rtl"],
    "verilog": ["emit_verilog"],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
