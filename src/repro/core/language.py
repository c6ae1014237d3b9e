"""The generic transaction language of §3 (Example 1).

::

    c ::= c1 + c2 | c1 ; c2 | (c)* | skip | tx c | m

Programs are immutable ASTs.  Following the paper's "first trick", the rest
of the semantics never pattern-matches on programs directly; it only uses

* ``step(c)`` — the set of pairs ``(m, c')`` such that ``m`` is a next
  reachable method in the reduction of ``c`` with remaining code ``c'``;
* ``fin(c)`` — whether ``c`` can reduce to ``skip`` without encountering a
  method call.

Method occurrences are :class:`Call` nodes carrying the method name and the
literal argument tuple (the paper's ``m`` together with the pre-stack the
operation record will receive).

Well-formedness (§3): every ``Call`` must be contained within a ``tx``
block; :func:`check_well_formed` enforces this.  As in the paper, nested
transactions are ignored — ``tx (… tx c …)`` is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, FrozenSet, Tuple

from repro.core.errors import LanguageError


class Code:
    """Base class for program ASTs.  All nodes are frozen and hashable.

    ``tx(*calls)`` nests one ``Seq`` per call, so nothing may recurse per
    operation: a node caches its hash (the dataclass's value) at
    construction, ``Seq`` walks its ``second`` spine iteratively, and
    unpickling reconstructs (a cached ``str`` hash is per-process)."""

    def __post_init__(self) -> None:
        # the fields are all the node's __dict__ holds yet
        object.__setattr__(self, "_hash", hash(tuple(self.__dict__.values())))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self))

    def __add__(self, other: "Code") -> "Choice":
        return Choice(self, other)


def _node(cls):
    """A frozen dataclass node that keeps :class:`Code`'s cached hash."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Code.__hash__
    return cls


@_node
class Skip(Code):
    """The terminated program ``skip``."""

    def __repr__(self) -> str:
        return "skip"


@_node
class Call(Code):
    """A method occurrence ``m`` with its literal arguments."""

    method: str
    args: Tuple[Any, ...] = ()

    def __repr__(self) -> str:
        arg_text = ", ".join(repr(a) for a in self.args)
        return f"{self.method}({arg_text})"


@_node
class Seq(Code):
    """Sequential composition ``c1 ; c2``."""

    first: Code
    second: Code

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Seq:
            return NotImplemented
        a, b = self, other
        while a is not b:
            if a._hash != b._hash:
                return False
            first = a.first
            if first is not b.first and not first == b.first:
                return False
            a, b = a.second, b.second
            if a.__class__ is not Seq or b.__class__ is not Seq:
                return a is b or a == b
        return True

    def __repr__(self) -> str:
        opened, node = [], self
        while isinstance(node, Seq):
            opened.append(f"({node.first!r} ; ")
            node = node.second
        return "".join(opened) + repr(node) + ")" * len(opened)


@_node
class Choice(Code):
    """Nondeterministic choice ``c1 + c2``."""

    left: Code
    right: Code

    def __repr__(self) -> str:
        return f"({self.left!r} + {self.right!r})"


@_node
class Star(Code):
    """Nondeterministic looping ``(c)*``."""

    body: Code

    def __repr__(self) -> str:
        return f"({self.body!r})*"


@_node
class Tx(Code):
    """A transaction block ``tx c``."""

    body: Code

    def __repr__(self) -> str:
        return f"tx {self.body!r}"


SKIP = Skip()


def seq(*parts: Code) -> Code:
    """Right-nested sequential composition of ``parts`` (``skip`` if empty)."""
    if not parts:
        return SKIP
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Seq(part, result)
    return result


def choice(*alternatives: Code) -> Code:
    """Left-nested nondeterministic choice (at least one alternative)."""
    if not alternatives:
        raise LanguageError("choice() needs at least one alternative")
    result = alternatives[0]
    for alt in alternatives[1:]:
        result = Choice(result, alt)
    return result


def tx(*parts: Code) -> Tx:
    """A transaction whose body is ``seq(*parts)``."""
    return Tx(seq(*parts))


def call(method: str, *args: Any) -> Call:
    return Call(method, tuple(args))


# ---------------------------------------------------------------------------
# step / fin (Example 1)
# ---------------------------------------------------------------------------


def step(code: Code) -> FrozenSet[Tuple[Call, Code]]:
    """``step(c)``: pairs ``(m, c')`` with ``m`` a next reachable method.

    Mirrors Example 1 of the paper literally, including the two auxiliary
    liftings ``S ; c`` and ``B ; S``.  Memoized on the (immutable) code
    node itself, so the memo lives exactly as long as the program: the
    machine re-queries ``step`` of the same residual programs on every APP
    probe, and a global table would keep every program ever stepped.  A
    :class:`Call` is the exception: its result holds the node itself, so
    memoizing it would make a cycle that only the cyclic collector frees,
    and it is trivial to rebuild.
    """
    if isinstance(code, Call):
        return frozenset({(code, SKIP)})
    try:
        return code._step  # type: ignore[attr-defined]
    except AttributeError:
        pass
    if isinstance(code, Skip):
        result: FrozenSet[Tuple[Call, Code]] = frozenset()
    elif isinstance(code, Seq):
        result = frozenset(
            (m, seq_cont(cont, code.second)) for m, cont in step(code.first)
        )
        if fin(code.first):
            result |= step(code.second)
    elif isinstance(code, Choice):
        result = step(code.left) | step(code.right)
    elif isinstance(code, Star):
        result = frozenset(
            (m, seq_cont(cont, code)) for m, cont in step(code.body)
        )
    elif isinstance(code, Tx):
        result = step(code.body)
    else:
        raise LanguageError(f"unknown code node {code!r}")
    object.__setattr__(code, "_step", result)
    return result


def seq_cont(cont: Code, rest: Code) -> Code:
    """``(m, c1) ; c2 = (m, c1; c2)`` with the ``skip`` unit folded away."""
    if isinstance(cont, Skip):
        return rest
    return Seq(cont, rest)


def sorted_choices(code: Code) -> Tuple[Tuple[Call, Code], ...]:
    """``step(code)`` in a deterministic order, cached on the (immutable)
    code node like :func:`step` itself: the model checker and every TM
    driver resolve each APP through this, and ``repr`` of program ASTs
    walks the whole program.  A single choice needs no sort.  Not memoized
    on a :class:`Call`, for the reason :func:`step` gives."""
    if isinstance(code, Call):
        return ((code, SKIP),)
    try:
        return code._schoices  # type: ignore[attr-defined]
    except AttributeError:
        pass
    choices = step(code)
    ordered = tuple(choices) if len(choices) == 1 else tuple(sorted(choices, key=repr))
    object.__setattr__(code, "_schoices", ordered)
    return ordered


def fin(code: Code) -> bool:
    """``fin(c)``: ``c`` can reduce to ``skip`` with no method call.
    Memoized on the node like :func:`step`: the CMT criterion probes it on
    every visit of every state."""
    try:
        return code._fin  # type: ignore[attr-defined]
    except AttributeError:
        pass
    if isinstance(code, Skip):
        result = True
    elif isinstance(code, Call):
        result = False
    elif isinstance(code, Seq):
        result = fin(code.first) and fin(code.second)
    elif isinstance(code, Choice):
        result = fin(code.left) or fin(code.right)
    elif isinstance(code, Star):
        result = True
    elif isinstance(code, Tx):
        result = fin(code.body)
    else:
        raise LanguageError(f"unknown code node {code!r}")
    object.__setattr__(code, "_fin", result)
    return result


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


def check_well_formed(code: Code) -> None:
    """Every method call inside a ``tx``; no nested ``tx`` (§3)."""
    _check(code, in_tx=False)


def _check(code: Code, in_tx: bool) -> None:
    if isinstance(code, Skip):
        return
    if isinstance(code, Call):
        if not in_tx:
            raise LanguageError(f"method {code!r} occurs outside any tx block")
        return
    if isinstance(code, (Seq, Choice)):
        left = code.first if isinstance(code, Seq) else code.left
        right = code.second if isinstance(code, Seq) else code.right
        _check(left, in_tx)
        _check(right, in_tx)
        return
    if isinstance(code, Star):
        _check(code.body, in_tx)
        return
    if isinstance(code, Tx):
        if in_tx:
            raise LanguageError("nested transactions are not modelled (§3)")
        _check(code.body, in_tx=True)
        return
    raise LanguageError(f"unknown code node {code!r}")


def methods_of(code: Code) -> FrozenSet[Call]:
    """All method occurrences syntactically reachable in ``code`` (used by
    the opacity §6.1 "reachable operations" analysis).  The ``Seq`` spine
    is walked iteratively, its unions taken right to left as the recursive
    definition takes them."""
    firsts = []
    while isinstance(code, Seq):
        firsts.append(code.first)
        code = code.second
    if isinstance(code, Skip):
        found: FrozenSet[Call] = frozenset()
    elif isinstance(code, Call):
        found = frozenset({code})
    elif isinstance(code, Choice):
        found = methods_of(code.left) | methods_of(code.right)
    elif isinstance(code, (Star, Tx)):
        found = methods_of(code.body)
    else:
        raise LanguageError(f"unknown code node {code!r}")
    for first in reversed(firsts):
        found = methods_of(first) | found
    return found
