"""Package exports that resolve on first access (PEP 562).

Every ``repro`` package that re-exports names declares them once, as a
``{submodule: names}`` table, and hands it to :func:`attach`::

    __getattr__, __dir__, __all__ = attach(__name__, {"tracer": ["Tracer"]})

``import repro.obs`` then loads no submodule; ``repro.obs.Tracer``
imports ``repro.obs.tracer`` on first access and caches the object on
the package, so later lookups are plain attribute reads.  Any other
submodule of the package also resolves as an attribute
(``repro.workloads.corpus``), as it did when every export was imported
eagerly.

An export that shares its submodule's name (``repro.core.verify``) is
bound eagerly by its package instead: importing the submodule rebinds
the package attribute to the module, and ``__getattr__`` never runs
for a name that is already bound.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def attach(
    package: str,
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule to the names the package exports
    from it; ``submodules`` lists submodules exported as themselves.
    ``__all__`` is every exported name, sorted.
    """
    owners: Dict[str, str] = {
        name: submodule for submodule, names in exports.items() for name in names
    }
    public = sorted([*owners, *submodules])

    def __getattr__(name: str) -> Any:
        submodule = owners.get(name)
        if submodule is not None:
            value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        elif name.startswith("__"):
            # A dunder probe must never import, let alone run ``__main__``.
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *public})

    return __getattr__, __dir__, public
