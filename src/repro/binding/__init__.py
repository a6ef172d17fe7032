"""Post-scheduling binding: instances, authorizations, registers."""

from .._lazy import attach

_EXPORTS = {
    "authorization": ["AccessAuthorizationTable"],
    "instances": ["InstanceBinding", "bind_instances"],
    "registers": [
        "Lifetime",
        "allocate_registers",
        "register_requirement",
        "value_lifetimes",
    ],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
