"""Polynomial decision procedure for non-contracting theories.

When every theory formula keeps its antecedent inside its consequent,
rewriting only ever grows the working multiset, and provability of
``A -> B`` becomes a fixpoint computation: saturate A under all rules and
watch for a marker that can only appear once B has been covered.  The
marker is a fresh attribute y together with the extra rule ``B -> B y``.

The saturation is bounded: the working multiset can strictly grow at most
once per unit of antecedent material across the rules, so the pass counter
starts at the total antecedent size and the loop stops when a pass changes
nothing, the counter runs out, or the marker shows up.  The loop runs on
count tuples over the attributes of theory and query plus a column for y,
with the rules compiled once (``formula._CountVectors``); each pass's
snapshot is turned back into a multiset for the recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Tuple

from .formula import (
    AttributeMultiset,
    Mfd,
    Theory,
    _CountVectors,
    format_mfd,
    is_non_contracting,
    singleton,
)

__all__ = [
    "ContractingTheoryError",
    "MemberPass",
    "MemberTrace",
    "member",
    "member_trace",
]


class ContractingTheoryError(ValueError):
    """The theory has a formula whose consequent loses antecedent material."""

    def __init__(self, formula: Mfd):
        super().__init__(f"theory is not non-contracting at: {format_mfd(formula)}")
        self.formula = formula


@dataclass(frozen=True)
class MemberPass:
    """One saturation pass: the multiset afterwards and the rules that fired."""

    snapshot: AttributeMultiset
    fired: Tuple[Mfd, ...]


@dataclass(frozen=True)
class MemberTrace:
    """Complete record of a membership run."""

    query: Mfd
    fresh_var: str
    passes: Tuple[MemberPass, ...]
    counter_final: int
    result: bool

    @property
    def iterations(self) -> int:
        return len(self.passes)


def member_trace(theory: Theory, query: Mfd) -> MemberTrace:
    """Run the saturation and return the full trace.

    Precondition: the theory is non-contracting; otherwise
    :class:`ContractingTheoryError` names the offending formula.  The query
    itself may be anything.
    """
    for f in theory:
        if not is_non_contracting(f):
            raise ContractingTheoryError(f)

    used = theory.variables | query.variables
    y = next(f"_y{i}" for i in count() if f"_y{i}" not in used)
    marker_rule = Mfd(query.consequent, query.consequent.union(singleton(y)))
    delta = theory.distinct_formulas() + (marker_rule,)
    space = _CountVectors(used | {y}, delta)
    marker = space.names.index(y)

    w = space.vec(query.antecedent)
    n = sum(f.antecedent.total for f in delta)
    passes = []
    while True:
        last = w
        fired = []
        for f, ant, gain in space.rules:
            if all(a <= c for a, c in zip(ant, w)):
                w = tuple(c + g for c, g in zip(w, gain))
                fired.append(f)
        n -= 1
        passes.append(MemberPass(space.unvec(w), tuple(fired)))
        if last == w or n <= 0 or w[marker] > 0:
            break
    return MemberTrace(query, y, tuple(passes), n, w[marker] > 0)


def member(theory: Theory, query: Mfd) -> bool:
    """Does the non-contracting theory prove the query?"""
    return member_trace(theory, query).result
