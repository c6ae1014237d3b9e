"""PEP 562 lazy exports for package ``__init__`` modules.

A package lists its public names with the submodule that defines each;
a name's submodule is imported on the name's first access, and the
value is then cached in the package globals, so later accesses never
reach the package's ``__getattr__`` again.  ``dir()``, ``__all__`` and
``from package import *`` see every exported name, resolved or not.

This keeps each process down to the layers it runs: ``repro serve``
never imports the model checker, and ``repro modelcheck`` never imports
a TM strategy, although both reach names through the same package
surfaces.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterable, List, Tuple


def resolve(module: str, attribute: str) -> Any:
    """``module.attribute``, importing ``module`` if need be.  Through
    ``__import__``, the import statement's path, so ``-X importtime``
    reports the module (``importlib.import_module`` bypasses it)."""
    return getattr(__import__(module, fromlist=[attribute]), attribute)


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package whose globals
    are ``namespace``; ``exports`` maps each submodule to the names it
    exports through the package."""
    home = {name: module for module, names in exports.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = resolve(module, name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)


class LazyTable(Mapping):
    """A read-only ``name → object`` mapping whose keys cost nothing:
    ``table[name]`` imports the one module that defines that entry, on
    its first lookup.  ``entries`` maps each name to ``(module, attribute)``."""

    def __init__(self, entries: Mapping[str, Tuple[str, str]]) -> None:
        self._where = dict(entries)

    def __getitem__(self, name: str) -> Any:
        return resolve(*self._where[name])

    def __iter__(self):
        return iter(self._where)

    def __len__(self) -> int:
        return len(self._where)
