"""Cycle-accurate simulation of scheduled multi-process systems."""

from .._lazy import attach

_EXPORTS = {
    "simulator": ["SimulationStats", "SystemSimulator"],
    "trace": ["Activation", "Trace", "Violation"],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
