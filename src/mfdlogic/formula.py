"""Formulas for reasoning about graded functional dependencies.

A dependency here is an implication ``A -> B`` between finite multisets of
attribute symbols.  Multiplicity matters: ``loc area area -> price`` demands
more antecedent evidence than ``loc area -> price``, so it is the weaker
claim.  Multisets multiply by adding multiplicities, the empty multiset acts
as the unit (written ``1`` or ``top`` in the text grammar), and one multiset
divides another when it can be completed to it attribute by attribute.

The module provides the value types (:class:`AttributeMultiset`,
:class:`Mfd`, :class:`Theory`), the structural predicates used by the
reasoning engine (triviality, non-contraction), the Boolean collapse that
reduces everything to classical functional dependencies, and a small
line-oriented text format for theories.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "MULTIPLICITY_CAP",
    "MultiplicityOverflowError",
    "TheoryParseError",
    "AttributeMultiset",
    "TOP",
    "singleton",
    "multiset_union",
    "multiset_power",
    "divides",
    "Mfd",
    "Theory",
    "is_trivial",
    "is_non_contracting",
    "is_non_contracting_theory",
    "booleanize",
    "parse_multiset",
    "parse_mfd",
    "parse_theory",
    "format_multiset",
    "format_mfd",
    "format_theory",
]

# Multiplicities are bounded so that runaway rewriting fails loudly instead of
# eating memory.  Reassign the module attribute to change the bound.
MULTIPLICITY_CAP = 2**31 - 1


class MultiplicityOverflowError(ValueError):
    """Raised when a multiset operation would exceed MULTIPLICITY_CAP."""


class TheoryParseError(ValueError):
    """Raised on malformed theory text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# =====================================================================
# Attribute multisets
# =====================================================================


def _capped(name: str, total: int) -> int:
    """A multiplicity of ``name``, if it is within MULTIPLICITY_CAP."""
    if total > MULTIPLICITY_CAP:
        raise MultiplicityOverflowError(f"multiplicity of {name!r} exceeds cap {MULTIPLICITY_CAP}")
    return total


class AttributeMultiset:
    """A finite multiset of attribute names.

    Attributes with multiplicity zero are simply absent; the empty multiset
    is the multiplicative unit.  Instances are immutable and hashable so
    they can serve as search states.
    """

    __slots__ = ("_counts", "_key", "_hash")

    def __init__(self, counts: Union[Mapping[str, int], Iterable[Tuple[str, int]], None] = None):
        items: Dict[str, int] = {}
        if counts is not None:
            pairs = counts.items() if isinstance(counts, Mapping) else counts
            for name, mult in pairs:
                if not isinstance(name, str) or not name:
                    raise ValueError(f"attribute name must be a non-empty string, got {name!r}")
                if not isinstance(mult, int) or isinstance(mult, bool):
                    raise ValueError(f"multiplicity of {name!r} must be an int, got {mult!r}")
                if mult < 0:
                    raise ValueError(f"multiplicity of {name!r} is negative: {mult}")
                if mult == 0:
                    continue
                items[name] = _capped(name, items.get(name, 0) + mult)
        self._counts = items
        self._key = tuple(sorted(items.items()))
        self._hash = hash(self._key)

    @classmethod
    def _raw(cls, counts: Dict[str, int]) -> "AttributeMultiset":
        # Internal fast path for operation results whose counts are already
        # known to be positive and capped; skips per-item validation.
        out = object.__new__(cls)
        out._counts = counts
        out._key = tuple(sorted(counts.items()))
        out._hash = hash(out._key)
        return out

    def __reduce__(self):
        # slots without __getstate__ do not pickle at protocols 0 and 1
        return AttributeMultiset, (self._key,)

    # -- basic queries -------------------------------------------------

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self.support)

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    @property
    def support(self) -> Tuple[str, ...]:
        """Attribute names with non-zero multiplicity, sorted."""
        return tuple(name for name, _ in self._key)

    def items(self) -> Tuple[Tuple[str, int], ...]:
        return self._key

    @property
    def total(self) -> int:
        """Sum of all multiplicities."""
        return sum(self._counts.values())

    @property
    def is_top(self) -> bool:
        return not self._counts

    # -- algebraic operations -------------------------------------------

    def union(self, other: "AttributeMultiset") -> "AttributeMultiset":
        """Multiset union: multiplicities add."""
        merged = dict(self._counts)
        for name, mult in other._counts.items():
            merged[name] = _capped(name, merged.get(name, 0) + mult)
        return AttributeMultiset._raw(merged)

    def power(self, n: int) -> "AttributeMultiset":
        """The n-fold union of this multiset with itself; power 0 is TOP."""
        if n < 0:
            raise ValueError(f"power must be non-negative, got {n}")
        counts = {name: _capped(name, mult * n) for name, mult in self._counts.items() if n}
        return AttributeMultiset._raw(counts)

    def contains_multiset(self, other: "AttributeMultiset") -> bool:
        """Pointwise multiplicity comparison: other <= self everywhere."""
        return all(self._counts.get(name, 0) >= mult for name, mult in other._counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeMultiset):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"AttributeMultiset({dict(self._key)!r})"

    def __str__(self) -> str:
        return format_multiset(self)


TOP = AttributeMultiset()


def singleton(name: str, count: int = 1) -> AttributeMultiset:
    """The multiset holding ``name`` with the given multiplicity."""
    return AttributeMultiset({name: count})


def multiset_union(a: AttributeMultiset, b: AttributeMultiset) -> AttributeMultiset:
    return a.union(b)


def multiset_power(a: AttributeMultiset, n: int) -> AttributeMultiset:
    return a.power(n)


def divides(e: AttributeMultiset, w: AttributeMultiset) -> Optional[AttributeMultiset]:
    """The unique X with E*X = W, or None when E does not divide W.

    Division is pointwise subtraction of multiplicities and exists exactly
    when E fits inside W everywhere.
    """
    wc = w._counts
    ec = e._counts
    for name, mult in ec.items():
        if wc.get(name, 0) < mult:
            return None
    remainder: Dict[str, int] = {}
    for name, mult in wc.items():
        left = mult - ec.get(name, 0)
        if left:
            remainder[name] = left
    return AttributeMultiset._raw(remainder)


class _CountVectors:
    """Multisets as count tuples over one sorted attribute index, for the
    rewrite engines.  Each rule is compiled once into ``(formula, antecedent
    counts, consequent - antecedent counts)``: it applies to W when the
    antecedent fits under W and yields W plus the difference.  ``unvec``
    validates, so a state leaving an engine still respects the cap."""

    def __init__(self, names: Iterable[str], formulas: Iterable[Mfd]):
        self.names = tuple(sorted(names))
        self._zeros = (0,) * len(self.names)
        rules = []
        for f in formulas:
            ant = self.vec(f.antecedent)
            rules.append((f, ant, tuple(map(operator.sub, self.vec(f.consequent), ant))))
        self.rules = tuple(rules)

    def vec(self, m: AttributeMultiset) -> Tuple[int, ...]:
        return tuple(map(m._counts.get, self.names, self._zeros))

    def unvec(self, state: Tuple[int, ...]) -> AttributeMultiset:
        return AttributeMultiset(zip(self.names, state))


def _pack(counts: Tuple[int, ...], width: int) -> int:
    """A count tuple of ``_CountVectors`` as one int: count i, which may be
    negative, is added at bit ``i * width``.  Counts in ``[0, 2**width)``
    each get a field of their own."""
    packed = 0
    for c in reversed(counts):
        packed = (packed << width) + c
    return packed


# =====================================================================
# Dependencies and theories
# =====================================================================


# Mfd and Theory declare their slots by hand rather than through
# ``dataclass(slots=True)``: on Python 3.10 and 3.11 the frozen __setattr__
# generated there names the class that the slotted copy replaced, so setting
# an attribute outside the fields raised TypeError instead of
# FrozenInstanceError.  Restoring slot state goes through setattr, which a
# frozen class refuses, so copies and pickles rebuild through __reduce__.


@dataclass(frozen=True)
class Mfd:
    """A graded functional dependency: antecedent implies consequent."""

    __slots__ = ("antecedent", "consequent")

    antecedent: AttributeMultiset
    consequent: AttributeMultiset

    def __reduce__(self):
        return Mfd, (self.antecedent, self.consequent)

    def __str__(self) -> str:
        return format_mfd(self)

    @property
    def variables(self) -> frozenset:
        return frozenset(self.antecedent._counts.keys() | self.consequent._counts.keys())


@dataclass(frozen=True)
class Theory:
    """An ordered collection of dependencies.

    Storage keeps duplicates and order (both matter for traces and for
    deterministic rewriting); reasoning operates on the deduplicated view.
    """

    __slots__ = ("formulas",)

    formulas: Tuple[Mfd, ...]

    def __init__(self, formulas: Iterable[Mfd] = ()):
        object.__setattr__(self, "formulas", tuple(formulas))

    def __reduce__(self):
        return Theory, (self.formulas,)

    def __iter__(self) -> Iterator[Mfd]:
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)

    @property
    def variables(self) -> frozenset:
        names: set = set()
        for f in self.formulas:
            names.update(f.antecedent._counts, f.consequent._counts)
        return frozenset(names)

    def distinct_formulas(self) -> Tuple[Mfd, ...]:
        """Deduplicated formulas in first-occurrence order."""
        return tuple(dict.fromkeys(self.formulas))

    def extended(self, *extra: Mfd) -> "Theory":
        return Theory(self.formulas + tuple(extra))

    def __str__(self) -> str:
        return format_theory(self)


# =====================================================================
# Structural predicates
# =====================================================================


def is_trivial(f: Mfd) -> bool:
    """True when the dependency holds in every model.

    That is exactly the axiom shape: the consequent never exceeds the
    antecedent in multiplicity.
    """
    return f.antecedent.contains_multiset(f.consequent)


def is_non_contracting(f: Mfd) -> bool:
    """True when the consequent contains the antecedent pointwise."""
    return f.consequent.contains_multiset(f.antecedent)


def is_non_contracting_theory(theory: Theory) -> bool:
    return all(is_non_contracting(f) for f in theory)


def booleanize(theory: Theory, extra_vars: Iterable[str] = ()) -> Theory:
    """Add the idempotence law p -> pp for every attribute in sight.

    The result makes every attribute behave Boolean: provability over the
    extended theory coincides with two-valued (classical functional
    dependency) entailment.  ``extra_vars`` covers attributes that occur
    only in an intended query.
    """
    names = sorted(set(theory.variables) | set(extra_vars))
    extra = tuple(Mfd(singleton(p), singleton(p, 2)) for p in names)
    return Theory(theory.formulas + extra)


# =====================================================================
# Text format
# =====================================================================
#
#   theory  := line*
#   line    := side "->" side            one dependency per line
#   side    := "1" | "top" | ident+      idents repeat to raise multiplicity
#   ident   := [A-Za-z][A-Za-z0-9_]*
#
# "#" starts a comment, blank lines are skipped.  "1" and "top" denote the
# empty multiset and may not mix with identifiers.  Names beginning with an
# underscore are reserved for machine-generated attributes.

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_RESERVED = ("1", "top")


def _parse_side(text: str, line_no: int, col_offset: int) -> AttributeMultiset:
    tokens = []
    for match in re.finditer(r"\S+", text):
        tokens.append((match.group(), col_offset + match.start() + 1))
    if not tokens:
        raise TheoryParseError("empty side of dependency", line_no, col_offset + 1)
    if any(tok in _RESERVED for tok, _ in tokens):
        if len(tokens) > 1:
            bad = next(col for tok, col in tokens if tok in _RESERVED)
            raise TheoryParseError(
                "unit symbol cannot be combined with attributes", line_no, bad
            )
        return TOP
    counts: Dict[str, int] = {}
    for tok, col in tokens:
        if tok.startswith("_"):
            raise TheoryParseError(
                f"attribute {tok!r} is reserved (leading underscore)", line_no, col
            )
        if not _IDENT_RE.match(tok):
            raise TheoryParseError(f"invalid attribute name {tok!r}", line_no, col)
        counts[tok] = counts.get(tok, 0) + 1
    return _shared_side(tuple(sorted(counts.items())), MULTIPLICITY_CAP)


@lru_cache(maxsize=4096)
def _shared_side(pairs: Tuple[Tuple[str, int], ...], cap: int) -> AttributeMultiset:
    # Parsed sides repeat heavily across theories and queries, and multisets
    # are immutable, so equal sides share one object.  The cap is part of
    # the key so that a reassigned MULTIPLICITY_CAP is still enforced.
    return AttributeMultiset(pairs)


def _parse_line(line: str, line_no: int) -> Mfd:
    arrow = line.find("->")
    if arrow < 0:
        raise TheoryParseError("expected '->'", line_no, len(line.rstrip()) + 1)
    if line.find("->", arrow + 2) >= 0:
        raise TheoryParseError("more than one '->'", line_no, line.find("->", arrow + 2) + 1)
    lhs = _parse_side(line[:arrow], line_no, 0)
    rhs = _parse_side(line[arrow + 2 :], line_no, arrow + 2)
    return Mfd(lhs, rhs)


def parse_multiset(text: str) -> AttributeMultiset:
    """Parse a single multiset in side syntax ("1", "top" or identifiers)."""
    return _parse_side(text, 1, 0)


def parse_mfd(text: str) -> Mfd:
    """Parse a single dependency such as ``"loc area area -> price"``."""
    stripped = text.split("#", 1)[0]
    if not stripped.strip():
        raise TheoryParseError("expected a dependency", 1, 1)
    return _parse_line(stripped, 1)


def parse_theory(text: str) -> Theory:
    """Parse theory text, one dependency per line."""
    formulas = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        formulas.append(_parse_line(line, line_no))
    return Theory(formulas)


def format_multiset(m: AttributeMultiset) -> str:
    if m.is_top:
        return "1"
    return " ".join(" ".join([name] * mult) for name, mult in m.items())


def format_mfd(f: Mfd) -> str:
    return f"{format_multiset(f.antecedent)} -> {format_multiset(f.consequent)}"


def format_theory(theory: Theory) -> str:
    return "\n".join(format_mfd(f) for f in theory) + ("\n" if len(theory) else "")
