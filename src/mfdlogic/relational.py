"""Ranked relations: dependency semantics over similarity-scored data.

A ranked relation is an ordinary table together with, per attribute, a
reflexive similarity map into the degree algebra.  A dependency
``A -> B`` holds in the relation when for every ordered pair of rows the
aggregated antecedent similarity stays below the aggregated consequent
similarity; aggregation is the algebra product over the multiset, so
repeated attributes damp the antecedent and weaken the claim.

Only reflexivity is ever required of a similarity; symmetry or any
transitivity-like law plays no role in the semantics.  Degrees live in any
pomonoid, typically a t-norm on [0, 1].

The two bridges to evaluation semantics are here as well: an evaluation
becomes a two-row relation with the same satisfaction behaviour, and a
relation decomposes into one evaluation per ordered pair of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    Algebra,
    Evaluation,
    FinitePomonoid,
    InvalidAlgebraError,
    UnitIntervalPomonoid,
    _read_json,
    algebra_from_json,
    builtin_algebra,
    evaluate,
    satisfies,
)
from .formula import AttributeMultiset, Mfd, Theory

__all__ = [
    "SchemeMismatchError",
    "InvalidRelationError",
    "SimilaritySpace",
    "RankedRelation",
    "RelationViolation",
    "tuple_similarity",
    "satisfies_relation",
    "relation_models",
    "evaluation_to_relation",
    "relation_to_evaluations",
    "builtin_similarity",
    "relation_from_json",
    "load_relation",
]

SimilarityFn = Callable[[object, object], object]


class SchemeMismatchError(ValueError):
    """A formula or similarity spec mentions attributes outside the scheme."""


class InvalidRelationError(ValueError):
    """Malformed relation description."""


@dataclass
class SimilaritySpace:
    """Per-attribute similarity maps into a shared degree algebra."""

    algebra: Algebra
    functions: Dict[str, SimilarityFn]

    def degree(self, attr: str, a, b):
        """The similarity of a and b at ``attr``; over a finite algebra it
        must be an element index, an int (numpy's too) in 0..size-1, else
        InvalidRelationError."""
        try:
            fn = self.functions[attr]
        except KeyError:
            raise SchemeMismatchError(f"no similarity for attribute {attr!r}") from None
        d = fn(a, b)
        if isinstance(self.algebra, FinitePomonoid) and not (
                isinstance(d, (int, np.integer)) and 0 <= d < self.algebra.size):
            raise InvalidRelationError(
                f"{attr!r} has degree {d!r} for {a!r} vs {b!r}, not an element index "
                f"of {self.algebra!r}")
        return d


@dataclass
class RankedRelation:
    """Rows over a scheme plus a similarity space covering that scheme."""

    scheme: Tuple[str, ...]
    tuples: Tuple[Tuple, ...]
    similarity: SimilaritySpace

    def __post_init__(self):
        self.scheme = tuple(self.scheme)
        self.tuples = tuple(tuple(row) for row in self.tuples)
        for row in self.tuples:
            if len(row) != len(self.scheme):
                raise InvalidRelationError(
                    f"row {row!r} has {len(row)} values for {len(self.scheme)} attributes"
                )
        missing = [a for a in self.scheme if a not in self.similarity.functions]
        if missing:
            raise SchemeMismatchError(f"no similarity for attributes: {', '.join(missing)}")

    def __len__(self) -> int:
        return len(self.tuples)


@dataclass(frozen=True)
class RelationViolation:
    """An ordered pair of rows where the dependency fails, with degrees."""

    formula: Mfd
    i: int
    j: int
    antecedent_degree: object
    consequent_degree: object


def _columns(rel: RankedRelation, attrs: Sequence[str]) -> List[Tuple[str, int]]:
    """Each attribute with its position in the scheme, in the given order."""
    outside = set(attrs) - set(rel.scheme)
    if outside:
        raise SchemeMismatchError(f"attributes outside the scheme: {', '.join(sorted(outside))}")
    return [(attr, rel.scheme.index(attr)) for attr in attrs]


def _pair_evaluation(
    rel: RankedRelation, i: int, j: int, columns: List[Tuple[str, int]]
) -> Evaluation:
    """The evaluation that rows i and j induce on the given columns: each
    attribute gets the similarity of its two values."""
    row_i, row_j = rel.tuples[i], rel.tuples[j]
    return Evaluation(rel.similarity.algebra, {
        attr: rel.similarity.degree(attr, row_i[pos], row_j[pos]) for attr, pos in columns})


def tuple_similarity(rel: RankedRelation, i: int, j: int, m: AttributeMultiset):
    """Aggregated similarity of rows i and j over a multiset of attributes.

    The product of per-attribute similarities, each raised to its
    multiplicity; the empty multiset gives the unit.
    """
    return evaluate(_pair_evaluation(rel, i, j, _columns(rel, m.support)), m)


# Row pairs per tile of the relation check: what a check holds at once is a
# few arrays of about this many degrees, whatever the number of rows.
_TILE_PAIRS = 4096

# The fast exponential of the screen in _tile_failure: within a few ULP of
# math.exp, which gives the degrees, but not always equal to it.
_approx_exp = np.exp

# The screen's allowance per factor of a formula.  A screened degree is
# _approx_exp of an exponent <= 0, within a few ULP of math.exp of it, so
# within a few times 2^-53.  All degrees lie in [0, 1], where product, min
# and the Lukasiewicz step move by at most the sum of their arguments'
# errors, and each of their roundings adds at most 2^-53.  A side of total
# multiplicity k folds k degrees in at most 2k steps, so it lies within a
# few times k * 2^-53 of the side folded from exact degrees, and the
# subtraction of the margin rounds by 2^-53 more.  So each side of a
# formula of total multiplicity K is within M = (K + 1) * _SCREEN_MARGIN of
# its exact value, with 2^13 ULP per factor where the bound needs a few,
# and a pair whose approximate sides are more than 2M apart gets the
# verdict of its exact sides.
_SCREEN_MARGIN = 2.0 ** -40


def _code_column(rel: RankedRelation, pos: int) -> Tuple[np.ndarray, List, Optional[np.ndarray]]:
    """Number the values at ``pos`` by first appearance.

    Returns (codes, values, floats): row r holds a value equal to
    ``values[codes[r]]``. Values of different types never share a code, so
    1 and 1.0 keep their own similarity calls; an unhashable value gets a
    code of its own. ``floats`` is :func:`_float_column` of the values when
    the attribute's similarity has an ``exponents`` kernel, else None.
    """
    index: Dict = {}
    values: List = []
    codes = []
    for row in rel.tuples:
        value = row[pos]
        try:
            code = index.setdefault((type(value), value), len(values))
        except TypeError:
            code = len(values)
        if code == len(values):
            values.append(value)
        codes.append(code)
    fn = rel.similarity.functions[rel.scheme[pos]]
    floats = _float_column(values) if hasattr(fn, "exponents") else None
    return np.array(codes, dtype=np.intp), values, floats


def _float_column(values: Sequence) -> Optional[np.ndarray]:
    """The values as float64 for an ``exponents`` kernel, each number through
    ``float()``: shape (n,) when every value is an int or a float, (n, k)
    when every value is a tuple or list of k of them.  None for anything
    else: a bool, a string, an int beyond float range, a column that mixes
    scalars and vectors, vectors of different lengths."""
    number = (int, float)
    try:
        if all(type(v) in number for v in values):
            return np.fromiter(map(float, values), np.float64, len(values))
        if all(type(v) in (tuple, list) and len(v) == len(values[0])
               and all(type(x) in number for x in v) for v in values):
            return np.array([[float(x) for x in v] for v in values], dtype=np.float64)
    except OverflowError:
        pass
    return None


def _batched(algebra: Algebra):
    """(dtype, times, leq) of the algebra on numpy arrays of degrees, entry
    by entry the same as its scalar ``times`` and ``leq_holds``; a finite
    algebra's are read from its flat tables at ``a * size + b``."""
    if isinstance(algebra, FinitePomonoid):
        s = algebra.size
        times_table, leq_table = (table.ravel() for table in algebra.np_tables())
        return np.intp, (lambda a, b: times_table[a * s + b]), (lambda a, b: leq_table[a * s + b])
    if algebra.kind == "product":
        return np.float64, np.multiply, np.less_equal
    if algebra.kind == "min":
        return np.float64, (lambda a, b: np.where(a <= b, a, b)), np.less_equal

    def lukasiewicz(a, b):
        s = a + b - 1.0
        return np.where(s > 0.0, s, 0.0)

    return np.float64, lukasiewicz, np.less_equal


def _fold(times, unit: np.ndarray, degrees: Mapping[str, np.ndarray],
          m: AttributeMultiset) -> np.ndarray:
    """:func:`algebra.evaluate` over arrays of degrees, in its exact order:
    each power starts at the unit, and so does the product of the powers."""
    acc = unit
    for name, mult in m.items():
        power = unit
        for _ in range(mult):
            power = times(power, degrees[name])
        acc = times(acc, power)
    return acc


def _degree_tile(
    rel: RankedRelation, attr: str, coded: Tuple[np.ndarray, List, Optional[np.ndarray]],
    dtype, rows: range,
) -> Optional[Tuple[np.ndarray, Optional[Callable[[np.ndarray], np.ndarray]]]]:
    """The degrees of ``attr`` on the pairs with their row in ``rows``, an
    array of ``dtype`` with one line per row, and a function giving exact
    ones; None where the similarity raises or gives degrees the algebra
    cannot hold.

    ``coded`` is :func:`_code_column` of the attribute. The similarity is
    called once per distinct pair of (tile value, column value), unless its
    ``exponents`` kernel computes all of them at once; the tile is gathered
    from those by the codes.  With the kernel, the degrees are
    ``_approx_exp`` of the exponents, and the function maps flat indices of
    pairs in the tile to the exact degrees, ``math.exp`` of their exponents,
    taken at most once per distinct pair of values.  Without it, the degrees
    are exact and the function is None.
    """
    algebra = rel.similarity.algebra
    codes, values, floats = coded
    fn = rel.similarity.functions[attr]
    local: Dict[int, int] = {}
    tile = np.array([local.setdefault(c, len(local))
                     for c in codes[rows.start : rows.stop].tolist()], dtype=np.intp)
    try:
        exponents = None if floats is None else fn.exponents(floats[list(local)], floats)
        if exponents is None:
            block = np.array([[fn(values[c], b) for b in values] for c in local])
        else:
            block = _approx_exp(exponents)
    except Exception:
        return None
    if not np.can_cast(block.dtype, dtype, "safe"):
        return None
    if dtype is np.intp and not 0 <= block.min() <= block.max() < algebra.size:
        return None  # the flat tables would read some other entry
    keys = tile[:, None] * len(values) + codes  # each pair's entry in the block
    degrees = block.astype(dtype, copy=False).ravel()[keys]
    if exponents is None:
        return degrees, None
    flat, whole = exponents.ravel(), []

    def exact(pairs: np.ndarray) -> np.ndarray:
        at = keys.ravel()[pairs]
        if not whole and 4 * len(at) < len(flat):
            return np.fromiter(map(math.exp, flat[at].tolist()), np.float64, len(at))
        if not whole:  # many pairs: every value once, kept for the tile
            whole.append(np.fromiter(map(math.exp, flat.tolist()), np.float64, len(flat)))
        return whole[0][at]

    return degrees, exact


def _tile_failure(
    rel: RankedRelation, f: Mfd, columns: List[Tuple[str, int]], batched: tuple,
    tiles: Mapping[str, Optional[Tuple[np.ndarray, Optional[Callable]]]], rows: range,
) -> Optional[Tuple[int, int]]:
    """First pair failing ``f`` with its row in ``rows``, row-major, or None.

    ``columns`` are :func:`_columns` of the attributes of ``f`` in sorted
    order, ``batched`` is :func:`_batched` of the algebra, and ``tiles``
    holds the :func:`_degree_tile` of each attribute of ``f`` on these rows,
    shared by every formula of the check. Where one is None, a value a
    similarity cannot take or a degree the algebra cannot hold, the pair
    scan decides whether a violation comes before the error, and raises it
    otherwise.

    When some degrees are approximate, those with a function for exact ones,
    a pair whose two sides lie more than twice the margin (see
    ``_SCREEN_MARGIN``) apart is decided on them; the others, the near
    ties, are decided again on exact degrees, so every verdict is that of
    the exact degrees.
    """
    if any(tiles[attr] is None for attr, _ in columns):
        return _scan_failure(rel, f, columns, rows)
    dtype, times, leq = batched
    n = len(rel.tuples)
    unit = rel.similarity.algebra.unit
    degrees = {attr: tiles[attr][0] for attr, _ in columns}
    exacts = {attr: tiles[attr][1] for attr, _ in columns if tiles[attr][1] is not None}
    units = np.full((len(rows), n), unit, dtype=dtype)
    ant = _fold(times, units, degrees, f.antecedent)
    con = _fold(times, units, degrees, f.consequent)
    if not exacts:
        holds = leq(ant, con)
    else:
        margin = 2 * (f.antecedent.total + f.consequent.total + 1) * _SCREEN_MARGIN
        holds = leq(ant, con - margin)
        near = np.flatnonzero(~holds & leq(ant, con + margin))
        if near.size:
            exact = {attr: d.ravel()[near] for attr, d in degrees.items()}
            exact.update((attr, fn(near)) for attr, fn in exacts.items())
            units = np.full(near.size, unit, dtype=dtype)
            holds.flat[near] = leq(_fold(times, units, exact, f.antecedent),
                                   _fold(times, units, exact, f.consequent))
    if holds.all():
        return None
    i, j = divmod(int(np.argmin(holds)), n)
    return rows.start + i, j


def _scan_failure(
    rel: RankedRelation, f: Mfd, columns: List[Tuple[str, int]], rows: range
) -> Optional[Tuple[int, int]]:
    """:func:`_tile_failure` pair by pair with scalar evaluation."""
    for i in rows:
        for j in range(len(rel.tuples)):
            if not satisfies(_pair_evaluation(rel, i, j, columns), f):
                return i, j
    return None


def satisfies_relation(
    rel: RankedRelation, f: Mfd
) -> Tuple[bool, Optional[RelationViolation]]:
    """:func:`relation_models` of the one-formula theory."""
    return relation_models(rel, Theory((f,)))


def relation_models(
    rel: RankedRelation, theory: Theory
) -> Tuple[bool, Optional[RelationViolation]]:
    """Check every theory formula over all ordered row pairs, diagonal included.

    Returns (True, None), or (False, the first violation) with both
    aggregated degrees: formulas in first-occurrence order, pairs row-major.
    Rows are checked in tiles of about ``_TILE_PAIRS`` pairs, so memory
    stays bounded at any size, and each column is coded once per call.

    One loop over the tiles serves every formula: in each tile, each
    attribute's degrees are computed once, and every formula still live
    is checked on them in theory order. A formula that fails in a tile
    drops the formulas after it, and so does one that names an attribute
    outside the scheme, or whose tile raises; that error is raised only if
    no earlier formula fails in a later tile. So the answer, or the error,
    is that of a scan formula by formula, and no formula is checked twice
    on one tile: a check does at most the work of one on a relation that
    models the whole theory. The price is that an early formula failing
    late lets the later formulas be checked on the tiles before its
    violation, where a scan formula by formula stops at that violation.
    """
    batched = _batched(rel.similarity.algebra)
    live: List[Tuple[Mfd, List[Tuple[str, int]]]] = []
    # the first formula known not to hold, with its pair or its error
    outcome: Optional[Tuple[Optional[Mfd], object]] = None
    for f in theory.distinct_formulas():
        try:
            live.append((f, _columns(rel, sorted(f.variables))))
        except SchemeMismatchError as exc:
            outcome = None, exc
            break
    coded: dict = {}
    for _, columns in live:
        for attr, pos in columns:
            if attr not in coded:
                coded[attr] = _code_column(rel, pos)
    n = len(rel.tuples)
    step = max(1, _TILE_PAIRS // max(n, 1))
    for start in range(0, n, step):
        if not live:
            break
        rows = range(start, min(n, start + step))
        tiles: Dict[str, Optional[Tuple[np.ndarray, Optional[Callable]]]] = {}
        for k, (f, columns) in enumerate(live):
            for attr, _ in columns:
                if attr not in tiles:
                    tiles[attr] = _degree_tile(rel, attr, coded[attr], batched[0], rows)
            try:
                failure = _tile_failure(rel, f, columns, batched, tiles, rows)
            except Exception as exc:
                failure = exc
            if failure is not None:
                outcome = f, failure
                del live[k:]
                break
    if outcome is None:
        return True, None
    f, failure = outcome
    if isinstance(failure, Exception):
        raise failure
    i, j = failure
    return False, RelationViolation(f, i, j, tuple_similarity(rel, i, j, f.antecedent),
                                    tuple_similarity(rel, i, j, f.consequent))


# =====================================================================
# Bridges between evaluations and relations
# =====================================================================


def evaluation_to_relation(e: Evaluation) -> RankedRelation:
    """A two-row relation that satisfies exactly what the evaluation does.

    Row one holds the unit everywhere, row two the assigned degrees; the
    similarity of the two values of an attribute is the assigned degree
    itself, and reflexivity gives the unit.
    """
    algebra = e.algebra
    scheme = tuple(sorted(e.assignment))
    unit = algebra.unit

    def make_fn(degree):
        def fn(a, b):
            if a == b:
                return unit
            return degree

        return fn

    functions = {p: make_fn(e.assignment[p]) for p in scheme}
    rows = (
        tuple(unit for _ in scheme),
        tuple(e.assignment[p] for p in scheme),
    )
    return RankedRelation(scheme, rows, SimilaritySpace(algebra, functions))


def relation_to_evaluations(rel: RankedRelation) -> List[Evaluation]:
    """One evaluation per ordered pair of rows (row-major order).

    The evaluation of an attribute is the similarity of the two row values,
    so a dependency holds in the relation iff it holds in every returned
    evaluation.
    """
    columns = _columns(rel, rel.scheme)
    n = len(rel.tuples)
    return [_pair_evaluation(rel, i, j, columns) for i in range(n) for j in range(n)]


# =====================================================================
# Built-in similarity kinds and the relation file format
# =====================================================================


def _is_degree(v) -> bool:
    """A unit-interval degree: an int or float (not a bool) in [0, 1]."""
    return type(v) in (int, float) and 0 <= v <= 1


def _scaled_distance(diffs: Sequence[float]) -> float:
    """The Euclidean length of ``diffs`` when their squares overflow: the
    largest |d| times the length of ``diffs`` divided by it, the squares
    summed left to right; infinite if a difference or the length is."""
    top = max(map(abs, diffs))
    total = 0.0
    for d in diffs:
        q = d / top
        total += q * q
    return top * math.sqrt(total)


def builtin_similarity(kind: str, algebra: Algebra, params: Mapping) -> SimilarityFn:
    """Construct one of the stock similarity functions.

    * ``exp_euclidean`` with constant c, an int or a float (not a bool or a
      str): exp(-10^-c * distance), where the distance is |a-b| on scalars
      and Euclidean on equal-length vectors; degrees land in (0, 1] and suit
      the unit-interval algebras.  The distance is float64 arithmetic on
      ``float()`` of each number: the squares ``d * d`` are summed left to
      right, then ``math.sqrt``, so a degree is the same on every Python
      version.  Where that sum of squares overflows, the differences are
      divided by the largest |d| first and the length multiplied by it
      after.  A distance that is not finite (a difference or the scaled
      length beyond float range) is out of range, for scalars and vectors
      alike.  The function carries an ``exponents(lefts, rights)`` kernel,
      which the relation check calls on two :func:`_float_column` arrays:
      -10^-c times the distance of every pair of rows, by the same
      operations, so ``math.exp`` of each is the degree bit for bit; None
      where a distance is not finite.  The check screens the pairs with
      ``np.exp`` of them: ``np.exp`` decides the pairs whose two sides a
      proven error margin separates, and ``math.exp`` decides the rest, the
      near ties, so degrees, verdicts and violations are bit for bit those
      of the function.  Columns with no such array (bools, strings, scalars
      mixed with vectors, vectors of different lengths) are computed pair by
      pair.
    * ``equality``: the unit on equal values, the designated ``bottom``
      element otherwise.
    * ``table``: an explicit matrix over listed ``labels``; the labels, the
      values and each row must be JSON arrays, and the diagonal must be the
      unit (reflexivity is checked eagerly).
    """
    if kind == "exp_euclidean":
        if not isinstance(algebra, UnitIntervalPomonoid):
            raise InvalidRelationError("exp_euclidean needs a unit-interval algebra")
        c = params["c"]
        if not isinstance(c, (int, float)) or isinstance(c, bool):
            raise InvalidRelationError(f"exp_euclidean c must be an int or a float, got {c!r}")
        try:
            scale = 10.0 ** (-float(c))
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise InvalidRelationError(f"exp_euclidean scale 10^-c is not finite for c = {c!r}")

        def exp_fn(a, b):
            try:
                if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                    dist = abs(float(a) - float(b))
                else:
                    if len(a) != len(b):
                        raise InvalidRelationError(f"vector length mismatch: {a!r} vs {b!r}")
                    total = 0.0
                    for x, y in zip(a, b):
                        if not (isinstance(x, Real) and isinstance(y, Real)):
                            raise TypeError
                        d = float(x) - float(y)
                        total += d * d
                    dist = math.sqrt(total)
                    if dist == math.inf:
                        dist = _scaled_distance([float(x) - float(y) for x, y in zip(a, b)])
                if not math.isfinite(dist):
                    raise OverflowError
                return math.exp(-scale * dist)
            except (TypeError, OverflowError):
                raise InvalidRelationError(
                    "exp_euclidean needs two numbers or two numeric vectors within float "
                    f"range: {a!r} vs {b!r}"
                ) from None

        def exponents(lefts, rights):
            # -scale * the distance of every pair of rows of two _float_column
            # arrays, by exp_fn's IEEE operations, so math.exp of each is
            # exp_fn's degree bit for bit; None where a distance is not
            # finite, as exp_fn raises there, so the pair path reports the
            # first such pair
            with np.errstate(over="ignore", invalid="ignore"):
                if lefts.ndim == 1:
                    dist = np.abs(lefts[:, None] - rights)
                else:
                    total = np.zeros((len(lefts), len(rights)))
                    for k in range(lefts.shape[1]):
                        d = lefts[:, None, k] - rights[:, k]
                        total += d * d
                    dist = np.sqrt(total)
                if not np.isfinite(dist).all():
                    return None
                return -scale * dist

        exp_fn.exponents = exponents
        return exp_fn

    if kind == "equality":
        unit = algebra.unit
        bottom = params["bottom"]
        if isinstance(algebra, FinitePomonoid):
            bottom = algebra.index_of(bottom) if isinstance(bottom, str) else bottom
            if type(bottom) is not int or bottom not in algebra.elements():
                raise InvalidRelationError(f"equality bottom {bottom!r} is not an element index")
        elif not _is_degree(bottom):
            raise InvalidRelationError(f"equality bottom {bottom!r} is not a degree in [0, 1]")

        def eq_fn(a, b):
            return unit if a == b else bottom

        return eq_fn

    if kind == "table":
        labels = _json_list(params["labels"], "table labels")
        values = [_json_list(row, "a table row")
                  for row in _json_list(params["values"], "table values")]
        pos = {v: i for i, v in enumerate(labels)}
        if len(pos) != len(labels):
            raise InvalidRelationError("table labels must be distinct")
        if len(values) != len(labels) or any(len(row) != len(labels) for row in values):
            raise InvalidRelationError("table values must be square over the labels")
        grid = []
        for row in values:
            if isinstance(algebra, FinitePomonoid):
                grid.append([algebra.index_of(str(v)) for v in row])
            else:
                bad = [v for v in row if not _is_degree(v)]
                if bad:
                    raise InvalidRelationError(f"table value {bad[0]!r} is not a degree in [0, 1]")
                grid.append([float(v) for v in row])
        for i in range(len(labels)):
            if grid[i][i] != algebra.unit:
                raise InvalidRelationError(
                    f"similarity table not reflexive at label {labels[i]!r}"
                )

        def table_fn(a, b):
            try:
                return grid[pos[a]][pos[b]]
            except (KeyError, TypeError):
                # an unhashable value is no label either
                missing = a if a not in labels else b
                raise InvalidRelationError(f"value {missing!r} not in the similarity table") from None

        return table_fn

    raise InvalidRelationError(f"unknown similarity kind {kind!r}")


def _coerce_value(value, domain: Optional[str], attr: str):
    """``value`` as a tuple entry of ``attr``; raises InvalidRelationError
    on a value outside the domain or a number in it that is not finite."""
    if domain is None:
        if not _finite(value):
            raise InvalidRelationError(f"attribute {attr!r} holds a number that is not finite")
        return tuple(value) if isinstance(value, list) else value
    if domain == "scalar":
        if not _is_number(value):
            raise InvalidRelationError(f"attribute {attr!r} expects a scalar, got {value!r}")
        return value
    if domain == "token":
        if not isinstance(value, str):
            raise InvalidRelationError(f"attribute {attr!r} expects a token, got {value!r}")
        return value
    if domain.startswith("vector"):
        digits = domain[len("vector") :]
        width = int(digits) if digits.isascii() and digits.isdigit() else 0
        if width < 1:
            raise InvalidRelationError(f"unknown domain {domain!r}")
        if (
            not isinstance(value, (list, tuple))
            or len(value) != width
            or not all(map(_is_number, value))
        ):
            raise InvalidRelationError(
                f"attribute {attr!r} expects a {width}-vector, got {value!r}"
            )
        return tuple(value)
    raise InvalidRelationError(f"unknown domain {domain!r}")


def _json_list(value, what: str):
    """``value`` if it is a JSON array (a list or tuple)."""
    if not isinstance(value, (list, tuple)):
        raise InvalidRelationError(f"{what} must be a list, got {value!r}")
    return value


def _finite(value) -> bool:
    """False for NaN or an infinity anywhere in a value: no similarity is
    reflexive on it (NaN == NaN fails, and inf - inf is NaN)."""
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _is_number(value) -> bool:
    """A finite int or float, not a bool: a scalar or vector entry."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def relation_from_json(doc: Mapping) -> RankedRelation:
    """Build a ranked relation from its dict description.

    Shape: {"algebra": name-or-inline, "scheme": [...], "domains": {...},
    "similarity": {attr: {"kind": ..., ...}}, "tuples": [[...], ...]}.
    """
    try:
        algebra_spec = doc["algebra"]
        scheme = [str(a) for a in _json_list(doc["scheme"], "scheme")]
        if len(set(scheme)) != len(scheme):
            raise InvalidRelationError(f"scheme {scheme!r} repeats an attribute")
        similarity_spec = doc["similarity"]
        rows = _json_list(doc["tuples"], "tuples")
        if isinstance(algebra_spec, str):
            algebra = builtin_algebra(algebra_spec)
        else:
            algebra = algebra_from_json(algebra_spec)

        domains = {str(k): str(v) for k, v in doc.get("domains", {}).items()}
        functions = {}
        for attr in scheme:
            spec = similarity_spec.get(attr)
            if spec is None:
                raise SchemeMismatchError(f"no similarity for attribute {attr!r}")
            params = {k: v for k, v in spec.items() if k != "kind"}
            try:
                functions[attr] = builtin_similarity(spec["kind"], algebra, params)
            except KeyError as exc:
                raise InvalidRelationError(
                    f"malformed relation description: similarity of attribute {attr!r} "
                    f"has no key {exc.args[0]!r}"
                ) from exc

        tuples = []
        for row in rows:
            row = _json_list(row, "a row")
            # one walk over each value coerces it and tests it finite; a
            # number that is not finite anywhere in a refused row is the
            # error reported, before its length or any value's domain
            try:
                if len(row) != len(scheme):
                    raise InvalidRelationError(
                        f"row {row!r} has {len(row)} values for {len(scheme)} attributes"
                    )
                tuples.append(tuple(
                    _coerce_value(value, domains.get(attr), attr)
                    for attr, value in zip(scheme, row)
                ))
            except InvalidRelationError:
                if not _finite(row):
                    raise InvalidRelationError(
                        f"row {row!r} holds a number that is not finite") from None
                raise
    except (InvalidAlgebraError, InvalidRelationError, SchemeMismatchError):
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidRelationError(f"malformed relation description: {exc}") from exc

    return RankedRelation(tuple(scheme), tuple(tuples), SimilaritySpace(algebra, functions))


def load_relation(path: str) -> RankedRelation:
    return relation_from_json(_read_json(path, InvalidRelationError))
