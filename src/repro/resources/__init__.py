"""Resource model: functional-unit types, libraries, scope assignment (S1)."""

from .._lazy import attach

_EXPORTS = {
    "assignment": ["ResourceAssignment"],
    "library": ["ResourceLibrary", "alu_library", "default_library"],
    "types": ["ResourceType", "resource_type"],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
