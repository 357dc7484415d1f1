"""Truth-degree algebras: integral commutative pomonoids and friends.

Dependencies are graded over a pomonoid: a partially ordered set with a
commutative, associative, monotone multiplication whose unit is the greatest
element.  Degrees multiply when evidence accumulates and the order says when
one degree is at least another.  Three families live here:

* :class:`FinitePomonoid` with explicit order and multiplication tables,
* :class:`FiniteResiduatedLattice`, a finite pomonoid with lattice meets and
  joins, a bottom, and a residuum adjoint to the multiplication,
* :class:`UnitIntervalPomonoid`, the classical t-norms (product, minimum,
  Lukasiewicz) on real numbers in [0, 1].

Besides evaluation of multisets and satisfaction of dependencies, the module
can exhaustively enumerate all finite integral commutative pomonoids up to a
size cap (deduplicated up to isomorphism), which powers the countermodel
search, and complete a finite pomonoid into a residuated lattice of downsets.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import types
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .formula import AttributeMultiset, Mfd, Theory, _as_int

__all__ = [
    "Violation",
    "UnassignedAttributeError",
    "InvalidAlgebraError",
    "FinitePomonoid",
    "FiniteResiduatedLattice",
    "UnitIntervalPomonoid",
    "Evaluation",
    "validate",
    "validate_unit_interval",
    "elem_power",
    "evaluate",
    "satisfies",
    "is_model",
    "enumerate_pomonoids",
    "downset_completion",
    "builtin_algebra",
    "BUILTIN_ALGEBRA_NAMES",
    "algebra_to_json",
    "algebra_from_json",
    "load_algebra",
    "ENUMERATION_SIZE_CAP",
]

# Enumeration beyond this carrier size is refused; the search space explodes.
ENUMERATION_SIZE_CAP = 6
# Completions with more downsets are refused; k incomparable elements have 2^k.
_COMPLETION_CAP = 256


def _check_size(size: int, name: str = "max_size") -> int:
    """``size`` as an int if it is a carrier size that can be enumerated:
    TypeError for a non-int, ValueError outside 1..ENUMERATION_SIZE_CAP."""
    size = _as_int(size, name)
    if not 1 <= size <= ENUMERATION_SIZE_CAP:
        raise ValueError(f"{name} must be in 1..{ENUMERATION_SIZE_CAP}, got {size}")
    return size


@dataclass(frozen=True)
class Violation:
    """One failed algebra axiom with the witnessing elements."""

    axiom: str
    witness: Tuple

    def __str__(self) -> str:
        return f"{self.axiom} fails at {self.witness}"


class UnassignedAttributeError(KeyError):
    """Raised when evaluating a multiset over an incomplete assignment."""


class InvalidAlgebraError(ValueError):
    """Raised when loading an algebra description that fails validation."""


# =====================================================================
# Finite pomonoids
# =====================================================================


def _truth(value) -> bool:
    """An order entry: a bool (numpy's too) or the int 0 or 1."""
    if getattr(value, "dtype", None) != bool and operator.index(value) not in (0, 1):
        raise ValueError("leq table entry out of range")
    return bool(value)


def _square(label: str, table, n: int, entry=operator.index) -> Tuple[tuple, ...]:
    """``table`` as an n x n tuple of ``entry`` values; for an index table
    (the default ``entry``), each an element index in range.  Neither
    ``entry`` takes a str, so a table or row given as a str is refused."""
    rows = tuple(tuple(map(entry, row)) for row in table)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"{label} table must be {n}x{n}")
    if entry is operator.index and any(not (0 <= v < n) for row in rows for v in row):
        raise ValueError(f"{label} table entry out of range")
    return rows


# Enumerated algebras are shared, so algebras are frozen; they have no slots
# for the reason given above formula.Mfd.  Copies and pickles rebuild through
# __reduce__, so they pass __post_init__'s checks and drop the flat tables.


@dataclass(frozen=True, repr=False)
class FinitePomonoid:
    """An integral commutative pomonoid on elements 0..size-1.

    ``leq_table[a][b]`` says whether a <= b and ``times_table[a][b]`` is the
    product.  Elements are addressed by index everywhere; ``element_names``
    only affects display and serialization.  Construction checks shapes and
    index ranges, and refuses a str where names, a table or a row is
    expected; axiom checking is the job of :func:`validate`.
    """

    element_names: Sequence[str]
    unit: int
    leq_table: Sequence[Sequence[bool]]
    times_table: Sequence[Sequence[int]]

    def __post_init__(self) -> None:
        if isinstance(self.element_names, str):
            raise TypeError("element names must be a sequence, not str")
        names = tuple(str(x) for x in self.element_names)
        n = len(names)
        if n == 0:
            raise ValueError("algebra needs at least one element")
        if len(set(names)) != n:
            raise ValueError("element names must be distinct")
        unit = operator.index(self.unit)
        if not (0 <= unit < n):
            raise ValueError(f"unit index {unit} out of range")
        object.__setattr__(self, "element_names", names)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "leq_table", _square("leq", self.leq_table, n, _truth))
        object.__setattr__(self, "times_table", _square("times", self.times_table, n))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def size(self) -> int:
        return len(self.element_names)

    def elements(self) -> range:
        return range(self.size)

    def leq_holds(self, a: int, b: int) -> bool:
        return self.leq_table[a][b]

    def times(self, a: int, b: int) -> int:
        return self.times_table[a][b]

    def index_of(self, name: str) -> int:
        try:
            return self.element_names.index(name)
        except ValueError:
            raise ValueError(f"unknown element name {name!r}") from None

    def is_linear(self) -> bool:
        """True when the order is total."""
        n = self.size
        return all(
            self.leq_table[a][b] or self.leq_table[b][a]
            for a in range(n)
            for b in range(a + 1, n)
        )

    @functools.cached_property
    def flat_tables(self):
        """(times, leq) as flat numpy arrays, built on first use: the entry
        for a and b is at ``a * size + b``.  Used by the vectorized scans."""
        import numpy as np

        times = np.array(self.times_table, dtype=np.int64)
        return times.ravel(), np.array(self.leq_table, dtype=bool).ravel()

    def canonical_form(self) -> Tuple[Tuple[bool, ...], Tuple[int, ...]]:
        """Relabeling-invariant fingerprint: minimal (leq, times) over all
        permutations.  Two finite pomonoids are isomorphic iff their
        canonical forms are equal."""
        leq, autos = _canonical_order(self.leq_table)
        return leq, min(_relabel(self.times_table, perm) for perm in autos)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} size={self.size} unit={self.element_names[self.unit]!r}>"

    def describe(self) -> str:
        """Readable rendering of the order and multiplication tables."""
        names = self.element_names
        width = max(len(s) for s in names)
        pad = lambda s: s.rjust(width)
        lines = [f"elements: {' '.join(names)}   unit: {names[self.unit]}"]
        header = " " * (width + 2) + " ".join(pad(s) for s in names)
        leq = [["1" if v else "." for v in row] for row in self.leq_table]
        times = [[names[v] for v in row] for row in self.times_table]
        for title, cells in (("leq (row <= col):", leq), ("times:", times)):
            lines += [title, header]
            lines += [f"  {pad(names[a])} {' '.join(map(pad, row))}" for a, row in enumerate(cells)]
        return "\n".join(lines)


@dataclass(frozen=True, repr=False)
class FiniteResiduatedLattice(FinitePomonoid):
    """A finite pomonoid whose order is a bounded lattice with a residuum.

    ``residuum_table[a][b]`` is the largest x with x*a <= b; adjointness
    (a*b <= c iff a <= residuum(b, c)) is part of :func:`validate`.
    """

    bottom: int
    meet_table: Sequence[Sequence[int]]
    join_table: Sequence[Sequence[int]]
    residuum_table: Sequence[Sequence[int]]

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.size
        bottom = operator.index(self.bottom)
        if not (0 <= bottom < n):
            raise ValueError(f"bottom index {bottom} out of range")
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "meet_table", _square("meet", self.meet_table, n))
        object.__setattr__(self, "join_table", _square("join", self.join_table, n))
        object.__setattr__(self, "residuum_table", _square("residuum", self.residuum_table, n))

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def residuum(self, a: int, b: int) -> int:
        return self.residuum_table[a][b]


@dataclass(frozen=True, repr=False)
class UnitIntervalPomonoid:
    """Real degrees in [0, 1] under a t-norm, ordered as usual.

    Comparisons are exact machine-real comparisons; nothing is rounded.
    """

    KINDS: ClassVar[Tuple[str, ...]] = ("product", "min", "lukasiewicz")

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown unit-interval pomonoid kind {self.kind!r}")

    __reduce__ = FinitePomonoid.__reduce__

    @property
    def unit(self) -> float:
        return 1.0

    def leq_holds(self, a: float, b: float) -> bool:
        return a <= b

    def times(self, a: float, b: float) -> float:
        if self.kind == "product":
            return a * b
        if self.kind == "min":
            return a if a <= b else b
        return max(0.0, a + b - 1.0)

    def __repr__(self) -> str:
        return f"<UnitIntervalPomonoid {self.kind}>"


Algebra = Union[FinitePomonoid, UnitIntervalPomonoid]


# =====================================================================
# Axiom checking
# =====================================================================


def validate(algebra: FinitePomonoid) -> List[Violation]:
    """All axiom violations of a finite candidate; empty means sound.

    Checks the partial order, the commutative monoid laws, monotonicity of
    the multiplication, and integrality (unit on top).  For residuated
    lattices also bounds, meet/join being actual infima/suprema, and the
    adjointness of the residuum, all exhaustively.
    """
    out: List[Violation] = []
    n = algebra.size
    leq = algebra.leq_table
    t = algebra.times_table
    u = algebra.unit

    for a in range(n):
        if not leq[a][a]:
            out.append(Violation("order-reflexive", (a,)))
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                out.append(Violation("order-antisymmetric", (a, b)))
            for c in range(n):
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    out.append(Violation("order-transitive", (a, b, c)))

    for a in range(n):
        for b in range(n):
            if t[a][b] != t[b][a]:
                out.append(Violation("times-commutative", (a, b)))
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    out.append(Violation("times-associative", (a, b, c)))

    for a in range(n):
        if t[u][a] != a:
            out.append(Violation("unit-neutral", (a,)))
        if not leq[a][u]:
            out.append(Violation("unit-greatest", (a,)))

    for a in range(n):
        for b in range(n):
            if not leq[a][b]:
                continue
            for c in range(n):
                if not leq[t[a][c]][t[b][c]]:
                    out.append(Violation("times-monotone", (a, b, c)))

    if isinstance(algebra, FiniteResiduatedLattice):
        bot = algebra.bottom
        for a in range(n):
            if not leq[bot][a]:
                out.append(Violation("bottom-least", (a,)))
        for a in range(n):
            for b in range(n):
                m = algebra.meet_table[a][b]
                if not (leq[m][a] and leq[m][b]):
                    out.append(Violation("meet-lower-bound", (a, b)))
                else:
                    for c in range(n):
                        if leq[c][a] and leq[c][b] and not leq[c][m]:
                            out.append(Violation("meet-greatest-lower", (a, b, c)))
                j = algebra.join_table[a][b]
                if not (leq[a][j] and leq[b][j]):
                    out.append(Violation("join-upper-bound", (a, b)))
                else:
                    for c in range(n):
                        if leq[a][c] and leq[b][c] and not leq[j][c]:
                            out.append(Violation("join-least-upper", (a, b, c)))
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if leq[t[a][b]][c] != leq[a][algebra.residuum_table[b][c]]:
                        out.append(Violation("residuum-adjoint", (a, b, c)))

    return out


def validate_unit_interval(
    algebra: UnitIntervalPomonoid,
    samples: int = 500,
    seed: int = 0,
    tolerance: float = 1e-12,
) -> List[Violation]:
    """Numeric spot check of the pomonoid laws on sampled triples."""
    import random

    rng = random.Random(seed)
    out: List[Violation] = []
    for _ in range(samples):
        a, b, c = (rng.random() for _ in range(3))
        t = algebra.times
        if abs(t(a, b) - t(b, a)) > tolerance:
            out.append(Violation("times-commutative", (a, b)))
        if abs(t(t(a, b), c) - t(a, t(b, c))) > tolerance:
            out.append(Violation("times-associative", (a, b, c)))
        if abs(t(1.0, a) - a) > tolerance:
            out.append(Violation("unit-neutral", (a,)))
        lo, hi = min(a, b), max(a, b)
        if t(lo, c) > t(hi, c) + tolerance:
            out.append(Violation("times-monotone", (lo, hi, c)))
        if t(a, b) > min(a, b) + tolerance:
            out.append(Violation("integrality", (a, b)))
    return out


# =====================================================================
# Evaluation semantics
# =====================================================================


@dataclass(frozen=True)
class Evaluation:
    """An assignment of degrees to attribute names over some algebra.

    Frozen, and ``assignment`` is a read-only copy of the mapping given, so
    a degree cannot be changed past the check of the constructor.  Copies
    and pickles rebuild through ``__reduce__``, which checks them again.
    """

    algebra: Algebra
    assignment: Mapping[str, Union[int, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        assignment = dict(self.assignment)
        # over a finite algebra a degree is an element index: -1 is not the last
        if isinstance(self.algebra, FinitePomonoid):
            for attr, value in assignment.items():
                try:
                    ok = 0 <= operator.index(value) < self.algebra.size
                except TypeError:
                    ok = False
                if not ok:
                    raise ValueError(f"{attr!r} has degree {value!r}, not an element index")
        object.__setattr__(self, "assignment", types.MappingProxyType(assignment))

    def __reduce__(self):
        return Evaluation, (self.algebra, dict(self.assignment))

    def degree_name(self, attr: str) -> str:
        """Display form of the assigned degree."""
        return _degree_text(self.algebra, self.assignment[attr])


def _degree_text(algebra: Algebra, value) -> str:
    """How a degree prints: a finite degree as its element name, a float
    with 4 decimals, anything else (an int, a Fraction) with ``str``."""
    if isinstance(algebra, FinitePomonoid):
        return algebra.element_names[value]
    if isinstance(value, float):
        return format(value, ".4f")
    return str(value)


def elem_power(algebra: Algebra, a, n: int):
    """a multiplied with itself n times; the empty product is the unit."""
    n = _as_int(n, "power")
    if n < 0:
        raise ValueError(f"power must be non-negative, got {n}")
    acc = algebra.unit
    for _ in range(n):
        acc = algebra.times(acc, a)
    return acc


def evaluate(e: Evaluation, m: AttributeMultiset):
    """Degree of a multiset: product of attribute degrees with multiplicity."""
    algebra = e.algebra
    acc = algebra.unit
    for name, mult in m.items():
        try:
            value = e.assignment[name]
        except KeyError:
            raise UnassignedAttributeError(name) from None
        acc = algebra.times(acc, elem_power(algebra, value, mult))
    return acc


def satisfies(e: Evaluation, f: Mfd) -> bool:
    """Whether the antecedent degree is below the consequent degree."""
    return e.algebra.leq_holds(evaluate(e, f.antecedent), evaluate(e, f.consequent))


def is_model(e: Evaluation, theory: Theory) -> bool:
    return all(satisfies(e, f) for f in theory.distinct_formulas())


# =====================================================================
# Exhaustive enumeration of finite integral commutative pomonoids
# =====================================================================
#
# Posets are grown one point at a time from isomorphism-class
# representatives: every poset on k points is a poset on k-1 points plus a
# new point with a down-set below it and a disjoint up-set above it, so
# extending one representative per class of size k-1 in every such way and
# keeping one canonical matrix (the minimal flattened order matrix over all
# relabelings) per class gives the classes of size k.  A poset with a
# greatest element on n points is a poset on n-1 points with a top adjoined,
# and its canonical matrix lists the top first, so the top is the unit,
# element 0.  Multiplication tables are then filled in row-major cell order
# by backtracking: each entry must sit below both arguments (integrality)
# and respect monotonicity against the cells already chosen; the unit row
# is fixed.  Associativity is left to :func:`validate`, which keeps a
# complete table exactly when it finds no violation.  The relabelings that
# reach a canonical matrix are exactly its order automorphisms; relabeling
# by one keeps a table valid or invalid, so the first table of each class
# is validated and, if it passes, emitted.


def _canonical_order(
    leq: Sequence[Sequence[bool]],
) -> Tuple[Tuple[bool, ...], List[Tuple[int, ...]]]:
    """Minimal flattened order matrix over all relabelings, and the
    relabelings (new position i holds old element perm[i]) that reach it."""
    n = len(leq)
    best: Optional[Tuple[bool, ...]] = None
    reaching: List[Tuple[int, ...]] = []
    for perm in itertools.permutations(range(n)):
        flat = tuple(leq[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or flat < best:
            best, reaching = flat, [perm]
        elif flat == best:
            reaching.append(perm)
    return best, reaching


def _relabel(times: Sequence[Sequence[int]], perm: Tuple[int, ...]) -> Tuple[int, ...]:
    """Flattened times table after moving old element perm[i] to position i."""
    n = len(perm)
    inv = [0] * n
    for pos, orig in enumerate(perm):
        inv[orig] = pos
    return tuple(inv[times[perm[i]][perm[j]]] for i in range(n) for j in range(n))


def _matrix(flat: Tuple[bool, ...], n: int) -> Tuple[Tuple[bool, ...], ...]:
    return tuple(flat[i * n:(i + 1) * n] for i in range(n))


def _downsets(leq: Sequence[Sequence[bool]], cap: Optional[int] = None) -> List[int]:
    """Every downset of ``leq`` as a bitmask, by size, then sorted members.

    A downset plus an element whose strict lower set it holds is again a
    downset, and each one arises so from itself minus a maximal element.
    Grown from the empty set one size at a time, the work follows their
    number, not 2^n.  Past ``cap`` downsets, InvalidAlgebraError."""
    n = len(leq)
    strictly_below = [sum(1 << y for y in range(n) if y != x and leq[y][x]) for x in range(n)]
    found, layer = [0], [0]
    while layer:
        grown = {d | 1 << x for d in layer for x in range(n)
                 if not d >> x & 1 and not strictly_below[x] & ~d}
        layer = sorted(grown, key=lambda d: [x for x in range(n) if d >> x & 1])
        found += layer
        if cap is not None and len(found) > cap:
            raise InvalidAlgebraError(f"over the completion cap of {cap}: {len(found)} downsets")
    return found


def _poset_classes(n: int) -> List[Tuple[Tuple[bool, ...], ...]]:
    """One canonical leq matrix per isomorphism class of posets on n points."""
    classes: List[Tuple[Tuple[bool, ...], ...]] = [()]
    for k in range(1, n + 1):
        m = k - 1
        seen = set()
        for leq in classes:
            # the new point goes above a down-set d and below an up-set u
            # (a downset of the transposed order) outside d and above all of d
            above = [sum(1 << y for y in range(m) if leq[x][y]) for x in range(m)]
            ups = _downsets([[leq[x][y] for x in range(m)] for y in range(m)])
            for d in _downsets(leq):
                for u in ups:
                    if u & d or any(u & ~above[x] for x in range(m) if d >> x & 1):
                        continue
                    rows = [leq[i] + (bool(d >> i & 1),) for i in range(m)]
                    rows.append(tuple(bool(u >> j & 1) for j in range(m)) + (True,))
                    seen.add(_canonical_order(rows)[0])
        classes = [_matrix(flat, k) for flat in seen]
    return classes


def _posets_with_top(n: int) -> List[Tuple[Tuple[bool, ...], ...]]:
    """Canonical posets of size n having a greatest element, sorted.

    The top is the only element with no other element above it, so its row
    (True, False, ...) is the smallest a row can be, and the canonical
    matrix lists it first.  Every other row then starts with True (it is
    below the top), so the matrix is minimal exactly when the other points
    are in their own canonical order; and different classes of the rest
    give different classes of rest plus top."""
    top = (True,) + (False,) * (n - 1)
    return [
        (top,) + tuple((True,) + row for row in rest)
        for rest in sorted(_poset_classes(n - 1))
    ]


def _fill_times_tables(
    leq: Tuple[Tuple[bool, ...], ...],
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Monotone integral times tables on ``leq`` with unit 0, associative or not."""
    n = len(leq)
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    candidates = {
        (i, j): [v for v in range(n) if leq[v][i] and leq[v][j]] for (i, j) in cells
    }
    table: List[List[Optional[int]]] = [[x] + [None] * (n - 1) for x in range(n)]
    table[0] = list(range(n))

    def consistent(i: int, j: int, v: int) -> bool:
        # monotonicity against every already chosen comparable cell; a
        # canonical order lists each element after all elements above it,
        # so the cells of elements below i or j are all still empty.  This
        # pruning is what keeps the search small: without it, size 6 takes
        # over ten times as long
        for b in range(n):
            w = table[b][j]
            if w is not None and leq[i][b] and not leq[v][w]:
                return False
            w = table[i][b]
            if w is not None and leq[j][b] and not leq[v][w]:
                return False
        return True

    def search(pos: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if pos == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[pos]
        for v in candidates[(i, j)]:
            if not consistent(i, j, v):
                continue
            table[i][j] = v
            table[j][i] = v
            yield from search(pos + 1)
            table[i][j] = None
            if i != j:
                table[j][i] = None

    yield from search(0)


def enumerate_pomonoids(max_size: int) -> Iterator[FinitePomonoid]:
    """Stream every integral commutative pomonoid of size <= max_size.

    ``max_size`` is checked when called: a non-int is a TypeError, a size
    outside 1..ENUMERATION_SIZE_CAP a ValueError.  Deterministic order:
    carrier size, then order matrix, then times table, all lexicographic.
    One representative per isomorphism class; the dedup is exact at these
    sizes (canonical order matrix plus minimization of the table under order
    automorphisms).  The unit is always element 0.

    Each carrier size is enumerated once per process and then replayed, so
    the yielded algebras are shared, process-wide objects: every call
    returns the same instances.  They must not be mutated.
    """
    sizes = range(1, _check_size(max_size) + 1)
    return (algebra for n in sizes for algebra in _pomonoids_of_size(n))


@functools.lru_cache(maxsize=None)
def _pomonoids_of_size(n: int) -> Tuple[FinitePomonoid, ...]:
    """All pomonoids of carrier size n, in enumeration order (memoized)."""
    out = []
    names = tuple(f"e{i}" for i in range(n))
    for leq in _posets_with_top(n):
        autos = _canonical_order(leq)[1]
        seen_tables = set()
        for times in _fill_times_tables(leq):
            canon = min(_relabel(times, perm) for perm in autos)
            if canon in seen_tables:
                continue
            seen_tables.add(canon)
            algebra = FinitePomonoid(names, 0, leq, times)
            if not validate(algebra):
                out.append(algebra)
    return tuple(out)


# =====================================================================
# Downset completion
# =====================================================================


def downset_completion(
    p: FinitePomonoid,
) -> Tuple[FiniteResiduatedLattice, Tuple[int, ...]]:
    """Complete a finite pomonoid into a residuated lattice of downsets.

    Carrier: all downward closed subsets ordered by inclusion.  Product of
    two downsets collects everything below a pointwise product; the residuum
    is the largest downset whose product with the left argument stays inside
    the right one.  Returns the lattice and the embedding that sends each
    element to its principal downset; the embedding preserves products, the
    unit and the order in both directions.  Downsets are listed by size,
    then sorted members.  The tables take about m^2 * n steps for m
    downsets; past _COMPLETION_CAP of them, InvalidAlgebraError.
    """
    n = p.size
    leq = p.leq_table
    downsets = _downsets(leq, _COMPLETION_CAP)
    index = {d: i for i, d in enumerate(downsets)}
    members = [[x for x in range(n) if d >> x & 1] for d in downsets]
    below = [sum(1 << x for x in range(n) if leq[x][a]) for a in range(n)]
    # product[i][b]: the downset generated by downset i times element b
    product = [[functools.reduce(operator.or_, (below[p.times_table[a][b]] for a in xs), 0)
                for b in range(n)] for xs in members]

    names = tuple("{" + ",".join(p.element_names[x] for x in xs) + "}" for xs in members)
    leq_table = [[not a & ~b for b in downsets] for a in downsets]
    times_table = [[index[functools.reduce(operator.or_, (row[b] for b in ys), 0)]
                    for ys in members] for row in product]
    meet_table = [[index[a & b] for b in downsets] for a in downsets]
    join_table = [[index[a | b] for b in downsets] for a in downsets]
    residuum_table = [[index[sum(1 << z for z in range(n) if not row[z] & ~b)]
                       for b in downsets] for row in product]

    lattice = FiniteResiduatedLattice(
        names, index[(1 << n) - 1], leq_table, times_table, index[0], meet_table, join_table,
        residuum_table,
    )
    return lattice, tuple(index[below[a]] for a in range(n))


# =====================================================================
# Built-in algebras and JSON serialization
# =====================================================================

BUILTIN_ALGEBRA_NAMES = ("product", "min", "lukasiewicz", "bool2")


def builtin_algebra(name: str) -> Algebra:
    """Algebra addressed by name: the three t-norms or the Boolean chain."""
    if name in UnitIntervalPomonoid.KINDS:
        return UnitIntervalPomonoid(name)
    if name == "bool2":
        return FinitePomonoid(
            ("0", "1"),
            unit=1,
            leq_table=((True, True), (False, True)),
            times_table=((0, 0), (0, 1)),
        )
    raise ValueError(
        f"unknown algebra name {name!r}; expected one of {', '.join(BUILTIN_ALGEBRA_NAMES)}"
    )


def algebra_to_json(algebra: FinitePomonoid) -> dict:
    """Plain-dict description of a finite algebra (names, not indices)."""
    names = algebra.element_names
    doc = {
        "elements": list(names),
        "unit": names[algebra.unit],
        "leq": [list(row) for row in algebra.leq_table],
        "times": [[names[v] for v in row] for row in algebra.times_table],
    }
    if isinstance(algebra, FiniteResiduatedLattice):
        doc["bottom"] = names[algebra.bottom]
        for key in ("meet", "join", "residuum"):
            doc[key] = [[names[v] for v in row] for row in getattr(algebra, f"{key}_table")]
    return doc


def algebra_from_json(doc: Mapping) -> FinitePomonoid:
    """Parse and validate a finite algebra description."""

    is_array = lambda value: isinstance(value, (list, tuple))

    def table(key: str, cell=lambda v: pos[str(v)]) -> list:
        rows = doc[key]
        if not (is_array(rows) and all(is_array(row) for row in rows)):
            raise TypeError(f"{key} must be an array of arrays")
        return [[cell(v) for v in row] for row in rows]

    try:
        if not is_array(doc["elements"]):
            raise TypeError("elements must be an array")
        names = [str(x) for x in doc["elements"]]
        pos = {name: i for i, name in enumerate(names)}
        if len(pos) != len(names):
            raise InvalidAlgebraError("duplicate element names")
        unit = pos[str(doc["unit"])]
        leq = table("leq", lambda v: v)
        if not all(isinstance(v, bool) for row in leq for v in row):
            raise TypeError("leq entries must be true or false")
        times = table("times")
        if "residuum" in doc or "meet" in doc or "join" in doc or "bottom" in doc:
            algebra: FinitePomonoid = FiniteResiduatedLattice(
                names, unit, leq, times, pos[str(doc["bottom"])],
                table("meet"), table("join"), table("residuum"),
            )
        else:
            algebra = FinitePomonoid(names, unit, leq, times)
    except InvalidAlgebraError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidAlgebraError(f"malformed algebra description: {exc}") from exc
    problems = validate(algebra)
    if problems:
        raise InvalidAlgebraError(
            "algebra violates axioms: " + "; ".join(str(v) for v in problems[:5])
        )
    return algebra


def load_algebra(source: str) -> Algebra:
    """Resolve a builtin name or a JSON file path to an algebra."""
    if source in BUILTIN_ALGEBRA_NAMES:
        return builtin_algebra(source)
    return algebra_from_json(_read_json(source, InvalidAlgebraError))


def _read_json(path: str, error: type):
    """The JSON document in a file; invalid JSON raises ``error``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"invalid JSON in {path}: {exc}") from exc
