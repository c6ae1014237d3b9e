"""Concrete sequential specifications (instances of Parameter 3.1).

Each module defines a :class:`~repro.core.spec.StateSpec` for one abstract
data type, together with *exact* mover decision procedures (realised either
analytically or by enumerating a provably sufficient finite set of states
for the operation pair — see each module's docstring).

========================  ==================================================
:mod:`.memory`            read/write registers (word-based STM substrate)
:mod:`.counter`           an integer counter (inc/dec/add/get)
:mod:`.setspec`           a mathematical set (add/remove/contains)
:mod:`.kvmap`             a key→value map (the Fig. 2 hashtable)
:mod:`.orderedset`        an ordered set (the §7 skip list, with min/max)
:mod:`.queuespec`         a FIFO queue (enq/deq)
:mod:`.stackspec`         a LIFO stack (push/pop)
:mod:`.bank`              bank accounts (deposit/withdraw/balance)
:mod:`.registry`          name-based lookup used by the harness
========================  ==================================================

Names resolve on first access (:mod:`repro.lazy`), so a process imports
only the specifications it instantiates.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.specs.memory": ("MemorySpec",),
    "repro.specs.counter": ("CounterSpec",),
    "repro.specs.setspec": ("SetSpec",),
    "repro.specs.kvmap": ("KVMapSpec",),
    "repro.specs.queuespec": ("QueueSpec",),
    "repro.specs.stackspec": ("StackSpec",),
    "repro.specs.bank": ("BankSpec",),
    "repro.specs.orderedset": ("OrderedSetSpec",),
    "repro.specs.product": ("ProductSpec",),
    "repro.specs.registry": ("get_spec", "spec_names"),
})
