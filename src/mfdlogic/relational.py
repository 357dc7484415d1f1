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

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    Algebra,
    Evaluation,
    FinitePomonoid,
    InvalidAlgebraError,
    UnitIntervalPomonoid,
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
    """Per-attribute similarity maps into a shared degree algebra.

    ``domains`` is optional shape metadata ("scalar", "vector2", ...,
    "token") used when loading tuples from files.
    """

    algebra: Algebra
    functions: Dict[str, SimilarityFn]
    domains: Dict[str, str] = None

    def __post_init__(self):
        if self.domains is None:
            self.domains = {}

    def degree(self, attr: str, a, b):
        try:
            fn = self.functions[attr]
        except KeyError:
            raise SchemeMismatchError(f"no similarity for attribute {attr!r}") from None
        return fn(a, b)


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
    rel: RankedRelation, i: int, j: int, columns: List[Tuple[str, int]], e: Evaluation
) -> Evaluation:
    """Fill ``e`` with the evaluation that rows i and j induce on the given
    columns: each attribute gets the similarity of its two values."""
    row_i, row_j = rel.tuples[i], rel.tuples[j]
    for attr, pos in columns:
        e.assignment[attr] = rel.similarity.degree(attr, row_i[pos], row_j[pos])
    return e


def tuple_similarity(rel: RankedRelation, i: int, j: int, m: AttributeMultiset):
    """Aggregated similarity of rows i and j over a multiset of attributes.

    The product of per-attribute similarities, each raised to its
    multiplicity; the empty multiset gives the unit.
    """
    e = Evaluation(rel.similarity.algebra)
    return evaluate(_pair_evaluation(rel, i, j, _columns(rel, m.support), e), m)


# Row pairs per tile of the relation check: what a check holds at once is a
# few arrays of about this many degrees, whatever the number of rows.
_TILE_PAIRS = 4096


def _code_column(rel: RankedRelation, pos: int) -> Tuple[np.ndarray, List]:
    """Number the values at ``pos`` by first appearance.

    Returns (codes, values): row r holds a value equal to ``values[codes[r]]``.
    Values of different types never share a code, so 1 and 1.0 keep their
    own similarity calls; an unhashable value gets a code of its own.
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
    return np.array(codes, dtype=np.intp), values


def _batched(algebra: Algebra):
    """(dtype, times, leq) of the algebra on numpy arrays of degrees, entry
    by entry the same as its scalar ``times`` and ``leq_holds``."""
    if isinstance(algebra, FinitePomonoid):
        times_table, leq_table = algebra.np_tables()
        return np.intp, (lambda a, b: times_table[a, b]), (lambda a, b: leq_table[a, b])
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


def _tile_failure(
    rel: RankedRelation, f: Mfd, coded: Mapping[str, Tuple[np.ndarray, List]], rows: range
) -> Optional[Tuple[int, int]]:
    """First failing pair with its row in ``rows``, row-major, or None.

    Each attribute's similarity is called once per distinct pair of (tile
    value, column value); the tile's degrees are gathered from those by the
    codes.
    """
    algebra = rel.similarity.algebra
    dtype, times, leq = _batched(algebra)
    degrees = {}
    for attr, (codes, values) in coded.items():
        fn = rel.similarity.functions[attr]
        local: Dict[int, int] = {}
        tile = [local.setdefault(c, len(local)) for c in codes[rows.start : rows.stop].tolist()]
        block = np.array([[fn(values[c], b) for b in values] for c in local])
        if not np.can_cast(block.dtype, dtype, "safe"):
            raise TypeError(f"{attr!r} has degrees of type {block.dtype} over {algebra!r}")
        degrees[attr] = block.astype(dtype, copy=False)[np.array(tile)[:, None], codes]
    unit = np.full((len(rows), len(rel.tuples)), algebra.unit, dtype=dtype)
    holds = leq(_fold(times, unit, degrees, f.antecedent), _fold(times, unit, degrees, f.consequent))
    if holds.all():
        return None
    i, j = divmod(int(np.argmin(holds)), len(rel.tuples))
    return rows.start + i, j


def _scan_failure(
    rel: RankedRelation, f: Mfd, columns: List[Tuple[str, int]], rows: range
) -> Optional[Tuple[int, int]]:
    """:func:`_tile_failure` pair by pair with scalar evaluation."""
    e = Evaluation(rel.similarity.algebra)
    for i in rows:
        for j in range(len(rel.tuples)):
            if not satisfies(_pair_evaluation(rel, i, j, columns, e), f):
                return i, j
    return None


def satisfies_relation(
    rel: RankedRelation, f: Mfd
) -> Tuple[bool, Optional[RelationViolation]]:
    """Check a dependency over all ordered row pairs, diagonal included.

    Returns (True, None) or (False, first violation in row-major order)
    with both aggregated degrees.  Rows are checked in tiles of about
    ``_TILE_PAIRS`` pairs, so memory stays bounded at any size; within a
    tile each similarity is called once per distinct pair of values.
    """
    columns = _columns(rel, sorted(f.variables))
    coded = {attr: _code_column(rel, pos) for attr, pos in columns}
    n = len(rel.tuples)
    step = max(1, _TILE_PAIRS // max(n, 1))
    for start in range(0, n, step):
        rows = range(start, min(n, start + step))
        try:
            failure = _tile_failure(rel, f, coded, rows)
        except Exception:
            # A value a similarity cannot take, or a degree the algebra
            # cannot hold: the pair scan decides whether a violation comes
            # before the error, and raises it otherwise.
            failure = _scan_failure(rel, f, columns, rows)
        if failure is not None:
            i, j = failure
            e = _pair_evaluation(rel, i, j, columns, Evaluation(rel.similarity.algebra))
            da, db = evaluate(e, f.antecedent), evaluate(e, f.consequent)
            return False, RelationViolation(f, i, j, da, db)
    return True, None


def relation_models(
    rel: RankedRelation, theory: Theory
) -> Tuple[bool, Optional[RelationViolation]]:
    """Check every theory formula; returns the first violation if any."""
    for f in theory.distinct_formulas():
        ok, violation = satisfies_relation(rel, f)
        if not ok:
            return False, violation
    return True, None


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
    algebra = rel.similarity.algebra
    columns = _columns(rel, rel.scheme)
    n = len(rel.tuples)
    return [
        _pair_evaluation(rel, i, j, columns, Evaluation(algebra))
        for i in range(n)
        for j in range(n)
    ]


# =====================================================================
# Built-in similarity kinds and the relation file format
# =====================================================================


def _is_degree(v) -> bool:
    """A unit-interval degree: an int or float (not a bool) in [0, 1]."""
    return type(v) in (int, float) and 0 <= v <= 1


def builtin_similarity(kind: str, algebra: Algebra, params: Mapping) -> SimilarityFn:
    """Construct one of the stock similarity functions.

    * ``exp_euclidean`` with constant c: exp(-10^-c * distance), where the
      distance is |a-b| on scalars and Euclidean on equal-length vectors;
      degrees land in (0, 1] and suit the unit-interval algebras.
    * ``equality``: the unit on equal values, the designated ``bottom``
      element otherwise.
    * ``table``: an explicit matrix over listed ``labels``; the diagonal
      must be the unit (reflexivity is checked eagerly).
    """
    if kind == "exp_euclidean":
        if not isinstance(algebra, UnitIntervalPomonoid):
            raise InvalidRelationError("exp_euclidean needs a unit-interval algebra")
        c = params["c"]
        try:
            scale = 10.0 ** (-float(c))
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise InvalidRelationError(f"exp_euclidean scale 10^-c is not finite for c = {c!r}")

        def exp_fn(a, b):
            try:
                if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                    dist = abs(a - b)
                else:
                    if len(a) != len(b):
                        raise InvalidRelationError(f"vector length mismatch: {a!r} vs {b!r}")
                    dist = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
                return math.exp(-scale * dist)
            except (TypeError, OverflowError):
                raise InvalidRelationError(
                    "exp_euclidean needs two numbers or two numeric vectors within float "
                    f"range: {a!r} vs {b!r}"
                ) from None

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
        labels = list(params["labels"])
        values = params["values"]
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
    if domain is None:
        return tuple(value) if isinstance(value, list) else value
    if domain == "scalar":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
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
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
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
            if not _finite(row):
                raise InvalidRelationError(f"row {row!r} holds a number that is not finite")
            if len(row) != len(scheme):
                raise InvalidRelationError(
                    f"row {row!r} has {len(row)} values for {len(scheme)} attributes"
                )
            tuples.append(tuple(
                _coerce_value(value, domains.get(attr), attr) for attr, value in zip(scheme, row)
            ))
    except (InvalidAlgebraError, InvalidRelationError, SchemeMismatchError):
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidRelationError(f"malformed relation description: {exc}") from exc

    space = SimilaritySpace(algebra, functions, domains)
    return RankedRelation(tuple(scheme), tuple(tuples), space)


def load_relation(path: str) -> RankedRelation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidRelationError(f"invalid JSON in {path}: {exc}") from exc
    return relation_from_json(doc)
