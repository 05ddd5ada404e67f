"""Lazy re-exports for package facades (PEP 562).

A facade lists ``{public name: defining module}`` once and imports a
defining module only when one of its names is first looked up, so
``import repro.cli`` loads what the command runs and not, say, the
daemon or the fuzz harness.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(namespace: dict[str, Any], table: dict[str, str]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for a facade's ``globals()``.

    ``table`` maps each public name to its defining module, relative to
    the facade (``".search"``).  A resolved name is cached in
    ``namespace``.  Unknown names raise ``AttributeError``, which lets
    ``from package import submodule`` fall back to importing it.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(table[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
