"""Name-based specification registry.

The runtime harness and the benchmark drivers select data types by name
(workload configurations are plain data), so the registry maps short names
to zero-argument spec factories; each built-in factory imports its
specification's module on its first call.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core.spec import SequentialSpec
from repro.lazy import resolve

_REGISTRY: Dict[str, Callable[[], SequentialSpec]] = {}


def register(name: str, factory: Callable[[], SequentialSpec]) -> None:
    """Register a spec factory under ``name`` (last registration wins)."""
    _REGISTRY[name] = factory


def get_spec(name: str) -> SequentialSpec:
    """Instantiate the spec registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown spec {name!r}; known: {known}")
    return factory()


def spec_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _deferred(module: str, cls: str) -> Callable[[], SequentialSpec]:
    """A factory that imports ``module`` on its first call."""

    def factory() -> SequentialSpec:
        return resolve(module, cls)()

    return factory


def _register_defaults() -> None:
    for name, module, cls in (
        ("memory", "memory", "MemorySpec"),
        ("counter", "counter", "CounterSpec"),
        ("set", "setspec", "SetSpec"),
        ("kvmap", "kvmap", "KVMapSpec"),
        ("queue", "queuespec", "QueueSpec"),
        ("stack", "stackspec", "StackSpec"),
        ("bank", "bank", "BankSpec"),
        ("orderedset", "orderedset", "OrderedSetSpec"),
    ):
        register(name, _deferred(f"repro.specs.{module}", cls))


_register_defaults()
