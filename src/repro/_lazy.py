"""Lazy package re-exports (PEP 562).

A package ``__init__`` names its public API without importing it::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".config": ("MachineConfig", "PAPER_MACHINE"),
        ".scenarios": ("get_scenario",),
    })

``repro.arch.MachineConfig`` then imports ``repro.arch.config`` on
first access and binds the name in the package, so later reads are
plain attribute lookups.  A command pays for the layers it runs, not
for every layer its packages re-export.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping
from typing import Any


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``: ``exports`` maps a
    module (relative to the package, e.g. ``".config"`` or
    ``"..obs.telemetry"``) to the names it provides."""
    source = {name: mod for mod, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        mod = source.get(name)
        if mod is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(mod, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *source})

    return __getattr__, __dir__
