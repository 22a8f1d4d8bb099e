"""Lazy package exports (PEP 562): a name's home module loads on first use.

A package lists each public name once, under the module that defines
it, and gets back the module-level ``__getattr__``/``__dir__`` pair
plus ``__all__``::

    _EXPORTS = {
        ".store": ("ResultStore", "migrate_store"),
        ".api": None,  # the submodule itself
    }
    __getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), _EXPORTS)

``pkg.Name``, ``from pkg import Name`` and ``from pkg import *`` import
the home module when the name is first read and cache the object in the
package namespace, so later reads are plain attribute lookups and every
spelling yields the one object the home module defines.  A command then
pays only for the modules it touches.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str,
    namespace: dict[str, Any],
    exports: Mapping[str, tuple[str, ...] | None],
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a module path relative to ``package`` (one leading
    dot) to the names it exports; ``None`` exports the submodule itself
    under its own name.
    """
    homes: dict[str, tuple[str, bool]] = {}
    for module, names in exports.items():
        if names is None:
            homes[module.rpartition(".")[2]] = (module, True)
        else:
            for name in names:
                homes[name] = (module, False)

    def __getattr__(name: str) -> Any:
        try:
            module, whole = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # The import statement's own machinery, not importlib's, so
        # ``python -X importtime`` reports the modules loaded here.
        __import__(package + module)
        home = sys.modules[package + module]
        value = home if whole else getattr(home, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__, list(homes)
