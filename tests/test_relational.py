"""Ranked relations, similarity spaces, and the evaluation bridges."""

import functools
import itertools
import json
import math
import random
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mfdlogic import (
    Evaluation,
    InvalidRelationError,
    Mfd,
    RankedRelation,
    RelationViolation,
    SchemeMismatchError,
    SimilaritySpace,
    Theory,
    builtin_algebra,
    builtin_similarity,
    enumerate_pomonoids,
    evaluation_to_relation,
    is_model,
    parse_mfd,
    parse_multiset,
    parse_theory,
    relation_from_json,
    relation_models,
    relation_to_evaluations,
    satisfies,
    satisfies_relation,
    tuple_similarity,
    load_relation,
)
from mfdlogic import relational

M = parse_multiset
F = parse_mfd

HOUSING_FD = F("loc area -> price")


def housing_oracle(rel, i, j):
    """Recompute the housing degrees directly from the raw rows."""
    row_i, row_j = (dict(zip(rel.scheme, rel.tuples[k])) for k in (i, j))
    area_i, area_j = row_i["area"], row_j["area"]
    loc_i, loc_j = row_i["loc"], row_j["loc"]
    price_i, price_j = row_i["price"], row_j["price"]
    s_area = math.exp(-1e-4 * abs(area_i - area_j))
    s_loc = math.exp(
        -1e-2 * math.sqrt(sum((x - y) ** 2 for x, y in zip(loc_i, loc_j)))
    )
    s_price = math.exp(-1e-6 * abs(price_i - price_j))
    return s_area, s_loc, s_price


# ============================================================
# Similarity aggregation
# ============================================================


class TestTupleSimilarity:
    def test_matches_direct_computation(self, housing_relation):
        rel = housing_relation
        for i in range(4):
            for j in range(4):
                s_area, s_loc, s_price = housing_oracle(rel, i, j)
                assert tuple_similarity(rel, i, j, M("area")) == pytest.approx(s_area)
                assert tuple_similarity(rel, i, j, M("loc area")) == pytest.approx(
                    s_area * s_loc
                )
                assert tuple_similarity(rel, i, j, M("price")) == pytest.approx(s_price)

    def test_multiplicities_are_powers(self, housing_relation):
        rel = housing_relation
        s_area, _, _ = housing_oracle(rel, 0, 1)
        assert tuple_similarity(rel, 0, 1, M("area area")) == pytest.approx(s_area**2)
        assert tuple_similarity(rel, 0, 1, M("area area area")) == pytest.approx(
            s_area**3
        )

    def test_empty_multiset_is_unit(self, housing_relation):
        assert tuple_similarity(housing_relation, 0, 3, M("1")) == 1.0

    def test_diagonal_is_unit(self, housing_relation):
        for i in range(4):
            assert tuple_similarity(housing_relation, i, i, M("loc area price")) == 1.0

    def test_symmetry(self, housing_relation):
        m = M("loc price")
        for i in range(4):
            for j in range(4):
                assert tuple_similarity(housing_relation, i, j, m) == pytest.approx(
                    tuple_similarity(housing_relation, j, i, m)
                )

    def test_unknown_attribute(self, housing_relation):
        with pytest.raises(SchemeMismatchError):
            tuple_similarity(housing_relation, 0, 1, M("rooms"))

    def test_known_degrees(self, housing_relation):
        pairs = {
            (0, 1): (0.7360, 0.8521),
            (0, 2): (0.3476, 0.8311),
            (0, 3): (0.6633, 0.8914),
            (1, 2): (0.4723, 0.9753),
            (1, 3): (0.7303, 0.7596),
            (2, 3): (0.3750, 0.7408),
        }
        for (i, j), (ant, cons) in pairs.items():
            got_ant = tuple_similarity(housing_relation, i, j, M("loc area"))
            got_cons = tuple_similarity(housing_relation, i, j, M("price"))
            assert got_ant == pytest.approx(ant, abs=5e-5)
            assert got_cons == pytest.approx(cons, abs=5e-5)


# ============================================================
# Dependency satisfaction
# ============================================================


class TestSatisfiesRelation:
    def test_housing_fd_holds(self, housing_relation):
        ok, violation = satisfies_relation(housing_relation, HOUSING_FD)
        assert ok is True and violation is None

    def test_reverse_direction_fails(self, housing_relation):
        ok, v = satisfies_relation(housing_relation, F("price -> loc"))
        assert ok is False
        assert (v.i, v.j) == (0, 1)
        assert v.formula == F("price -> loc")
        assert v.antecedent_degree == pytest.approx(0.8521, abs=5e-5)
        assert v.consequent_degree == pytest.approx(0.7524, abs=5e-5)

    def test_extra_row_breaks_fd(self, housing_extra_relation):
        ok, v = satisfies_relation(housing_extra_relation, HOUSING_FD)
        assert ok is False
        assert (v.i, v.j) == (1, 4)
        assert v.antecedent_degree == pytest.approx(0.8263, abs=5e-5)
        assert v.consequent_degree == pytest.approx(0.8187, abs=5e-5)

    def test_all_violating_pairs(self, housing_extra_relation):
        rel = housing_extra_relation
        bad = set()
        for i in range(5):
            for j in range(5):
                da = tuple_similarity(rel, i, j, M("loc area"))
                db = tuple_similarity(rel, i, j, M("price"))
                if not da <= db:
                    bad.add((i, j))
        assert bad == {(1, 4), (3, 4), (4, 1), (4, 3)}

    def test_weakened_fd_recovers(self, housing_extra_relation):
        weak = F("loc area area -> price")
        ok, violation = satisfies_relation(housing_extra_relation, weak)
        assert ok is True and violation is None
        rel = housing_extra_relation
        assert tuple_similarity(rel, 1, 4, weak.antecedent) == pytest.approx(
            0.8156, abs=5e-5
        )
        assert tuple_similarity(rel, 3, 4, weak.antecedent) == pytest.approx(
            0.5315, abs=5e-5
        )

    def test_formula_outside_scheme(self, housing_relation):
        with pytest.raises(SchemeMismatchError):
            satisfies_relation(housing_relation, F("price -> rooms"))

    def test_relation_models_reports_first_offender(self, housing_relation):
        theory = parse_theory("loc area -> price\nprice -> loc\narea -> price")
        ok, v = relation_models(housing_relation, theory)
        assert ok is False
        assert v.formula == F("price -> loc")
        ok2, v2 = relation_models(
            housing_relation, parse_theory("loc area -> price")
        )
        assert ok2 is True and v2 is None

    @pytest.mark.parametrize("theory,holds", [("x -> x\nx z -> x\nx -> y", False),
                                              ("x -> x\nx x -> x\nx z -> x", True)],
                             ids=["fails", "holds"])
    def test_each_column_is_coded_once(self, monkeypatch, theory, holds):
        # three formulas share x, and only the last may fail: x is coded once
        rng = random.Random(11)
        rows = [(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)) for _ in range(12)]
        fn = lambda a, b: 1.0 if a == b else 0.5
        rel = RankedRelation(("x", "y", "z"), rows,
                             SimilaritySpace(builtin_algebra("product"), dict.fromkeys("xyz", fn)))
        theory = parse_theory(theory)
        verdicts = [satisfies_relation(rel, f) for f in theory.distinct_formulas()]
        expected = next((v for v in verdicts if not v[0]), (True, None))
        assert expected[0] == holds
        coded = []
        code = relational._code_column
        monkeypatch.setattr(relational, "_code_column",
                            lambda rel, pos: coded.append(rel.scheme[pos]) or code(rel, pos))
        assert relation_models(rel, theory) == expected
        assert coded.count("x") == 1

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_degrees_outside_a_finite_algebra(self, bad):
        # -1 would read the last element and 2 no element at all: the tiles,
        # the pair scan and tuple_similarity all refuse both
        algebra = builtin_algebra("bool2")
        fn = lambda a, b: algebra.unit if a == b else bad
        rel = RankedRelation(("a", "b"), [("u", "x"), ("u", "y")],
                             SimilaritySpace(algebra, {"a": fn, "b": fn}))
        for f in (F("a -> b"), F("b b -> a"), F("a b -> a")):
            with pytest.raises(InvalidRelationError, match="not an element index"):
                TestAgainstPairScan.first_violation(rel, f)
            with pytest.raises(InvalidRelationError, match="not an element index"):
                satisfies_relation(rel, f)

    @pytest.mark.parametrize("bad", [-1, 2, 0.0, 1.5, "1", None])
    def test_a_violation_before_a_bad_degree_wins(self, bad):
        # b gives 0 on x vs y and ``bad`` next to z: rows x, y, z fail a -> b
        # at (0, 1) before the bad degree at (0, 2); rows z, x, y reach the
        # bad degree at (0, 1) first
        algebra = builtin_algebra("bool2")
        zero = algebra.index_of("0")
        same = lambda a, b: algebra.unit
        fn = lambda a, b: algebra.unit if a == b else bad if "z" in (a, b) else zero
        f = F("a -> b")
        for rows, expected in ((["x", "y", "z"], (0, 1)), (["z", "x", "y"], None)):
            rel = RankedRelation(("a", "b"), [("u", v) for v in rows],
                                 SimilaritySpace(algebra, {"a": same, "b": fn}))
            if expected is None:
                with pytest.raises(InvalidRelationError, match="not an element index"):
                    satisfies_relation(rel, f)
            else:
                assert satisfies_relation(rel, f) == (
                    False, RelationViolation(f, *expected, algebra.unit, zero))


class TestAgainstPairScan:
    """satisfies_relation against a brute-force tuple_similarity scan, with
    multiplicities up to 3: the same violation, or the same error."""

    @staticmethod
    def first_violation(rel, f):
        n = len(rel)
        for i in range(n):
            for j in range(n):
                da = tuple_similarity(rel, i, j, f.antecedent)
                db = tuple_similarity(rel, i, j, f.consequent)
                if not rel.similarity.algebra.leq_holds(da, db):
                    return i, j, da, db
        return None

    def check(self, rng, rel):
        outcomes = set()
        for _ in range(15):
            sides = [
                " ".join(a for a in rel.scheme for _ in range(rng.randint(0, 3))) or "1"
                for _ in range(2)
            ]
            f = Mfd(parse_multiset(sides[0]), parse_multiset(sides[1]))
            try:
                expected = self.first_violation(rel, f)
            except InvalidRelationError as exc:
                with pytest.raises(InvalidRelationError) as info:
                    satisfies_relation(rel, f)
                assert str(info.value) == str(exc)
                continue
            if expected is None:
                assert satisfies_relation(rel, f) == (True, None)
            else:
                assert satisfies_relation(rel, f) == (False, RelationViolation(f, *expected))
            outcomes.add(expected is None)
        return outcomes

    def check_tables(self, rng, algebra, degrees, unit):
        labels, scheme = ["x", "y", "z"], ("a", "b", "c")
        functions = {
            attr: builtin_similarity("table", algebra, {
                "labels": labels,
                "values": [[unit if r == c else rng.choice(degrees) for c in labels]
                           for r in labels],
            })
            for attr in scheme
        }
        rows = [[rng.choice(labels) for _ in scheme] for _ in range(rng.randint(1, 5))]
        return self.check(rng, RankedRelation(scheme, rows, SimilaritySpace(algebra, functions)))

    @pytest.mark.parametrize("kind", ["product", "min", "lukasiewicz"])
    def test_unit_interval(self, kind):
        rng = random.Random(f"pairs:{kind}")
        algebra = builtin_algebra(kind)
        outcomes = set()
        for _ in range(30):
            outcomes |= self.check_tables(rng, algebra, [0.0, 0.25, 0.5, 0.7, 0.9, 1.0], 1.0)
        assert outcomes == {True, False}

    def test_enumerated_finite(self):
        rng = random.Random("pairs:finite")
        outcomes = set()
        for algebra in enumerate_pomonoids(4):
            for _ in range(5):
                names = algebra.element_names
                outcomes |= self.check_tables(rng, algebra, names, names[algebra.unit])
        assert outcomes == {True, False}

    @pytest.mark.parametrize("kind", ["product", "min", "lukasiewicz"])
    def test_exp_euclidean(self, kind):
        # equal ints and floats (2 and 2.0) in one column, scalars and vector2
        rng = random.Random(f"exp:{kind}")
        algebra = builtin_algebra(kind)
        outcomes = set()
        for _ in range(20):
            fn = builtin_similarity("exp_euclidean", algebra, {"c": rng.choice([-1, 0, 1])})

            def number():
                return rng.choice([0, 1, 2, 2.0, 2.5, 3, rng.randint(0, 9), rng.uniform(0, 9)])

            rows = [[number(), number(), (number(), number())]
                    for _ in range(rng.randint(1, 12))]
            rel = RankedRelation(("a", "b", "v"), rows,
                                 SimilaritySpace(algebra, {a: fn for a in ("a", "b", "v")}))
            outcomes |= self.check(rng, rel)
        assert outcomes == {True, False}

    # an exp_euclidean column of n values, and whether the exponents kernel takes it
    KERNEL_COLUMNS = {
        "floats": (lambda r, n: [r.uniform(-5, 5) for _ in range(n)], True),
        "ints up to 2^53": (lambda r, n: [r.choice([1, -1]) * (2**53 - r.randint(0, 40))
                                          for _ in range(n)], True),
        "ints beyond 2^53": (lambda r, n: [2**60 + 256 * r.randint(0, 40) + r.randint(0, 255)
                                           for _ in range(n)], True),
        "ints and floats": (lambda r, n: [r.choice([2, 2.0, r.randint(-9, 9), r.uniform(-9, 9)])
                                          for _ in range(n)], True),
        "vector1": (lambda r, n: [(r.uniform(-5, 5),) for _ in range(n)], True),
        "vector2": (lambda r, n: [[r.randint(-5, 5), r.uniform(-5, 5)] for _ in range(n)], True),
        "vector3": (lambda r, n: [tuple(r.uniform(-2, 2) for _ in range(3)) for _ in range(n)],
                    True),
        "vector12": (lambda r, n: [tuple(r.choice([r.randint(-1, 1), r.uniform(-1, 1)])
                                         for _ in range(12)) for _ in range(n)], True),
        "bools": (lambda r, n: [r.choice([True, False]) for _ in range(n)], False),
        "strings": (lambda r, n: [r.choice(["x", "yz", "1"]) for _ in range(n)], False),
        "ints beyond float range": (lambda r, n: [10**400 + r.randint(0, 3) for _ in range(n)],
                                    False),
        "ragged vectors": (lambda r, n: [(1.0,), (1.0, 2.0)] + [
            tuple(r.uniform(0, 1) for _ in range(r.randint(1, 3))) for _ in range(n - 2)], False),
        "scalars and vectors": (lambda r, n: [0.5, (0.5, 1.0)] + [
            r.choice([r.uniform(0, 1), (r.uniform(0, 1), 1.0)]) for _ in range(n - 2)], False),
        "1e200 components": (lambda r, n: [(1e200, 0), (-1e200, 0)] + [
            (r.choice([1e200, -1e200, 0.0]), r.uniform(0, 1)) for _ in range(n - 2)], False),
    }

    @staticmethod
    def exact_degrees(exponents):
        return np.array([[math.exp(x) for x in row] for row in exponents.tolist()])

    @pytest.mark.parametrize("kind", sorted(KERNEL_COLUMNS))
    def test_exponents_kernel_against_exp_fn(self, kind):
        # math.exp of the kernel's exponents is exp_fn's matrix bit for bit,
        # or the kernel gives None for the pair path
        make, kernel = self.KERNEL_COLUMNS[kind]
        rng = random.Random(f"block:{kind}")
        algebra = builtin_algebra("product")
        used = set()
        for _ in range(12):
            fn = builtin_similarity("exp_euclidean", algebra, {"c": rng.choice([0, 1, 3])})
            column = make(rng, rng.randint(2, 12))
            rng.shuffle(column)
            rows = [(value, rng.uniform(0, 3)) for value in column]
            rel = RankedRelation(("a", "b"), rows, SimilaritySpace(algebra, {"a": fn, "b": fn}))
            _, values, floats = relational._code_column(rel, 0)
            try:
                expected = np.array([[fn(x, y) for y in values] for x in values])
            except InvalidRelationError:
                expected = None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = None if floats is None else fn.exponents(floats, floats)
                tile = [rng.randrange(len(values)) for _ in range(3)]
                part = None if floats is None else fn.exponents(floats[tile], floats)
            if got is not None:
                assert got.dtype == part.dtype == expected.dtype == np.float64
                assert self.exact_degrees(got).tobytes() == expected.tobytes()
                assert self.exact_degrees(part).tobytes() == expected[tile].tobytes()
            used.add(got is not None)
            self.check(rng, rel)
        assert used == {kernel}

    def test_overflowing_squares_take_the_pair_path(self):
        # 2e200 squared is beyond float range: the kernel declines the tile,
        # without a numpy warning, and the pair scan takes exp_fn's degree
        # of the scaled distance, 2e200
        algebra = builtin_algebra("product")
        fn = builtin_similarity("exp_euclidean", algebra, {"c": 200})
        rel = RankedRelation(("v",), [((1e200, 0),), ((-1e200, 0),)],
                             SimilaritySpace(algebra, {"v": fn}))
        floats = relational._code_column(rel, 0)[2]
        degree = math.exp(-(10.0 ** -200) * 2e200)
        assert 0 < degree < 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn.exponents(floats, floats) is None
            assert satisfies_relation(rel, F("v -> v v")) == (
                False, RelationViolation(F("v -> v v"), 0, 1, degree, degree * degree))

    def test_lambda_similarity(self):
        rng = random.Random("pairs:lambda")
        algebra = builtin_algebra("product")
        functions = {"a": lambda x, y: 1.0 / (1.0 + abs(x - y)), "b": lambda x, y: 1.0 if x == y else 0.5}
        outcomes = set()
        for _ in range(20):
            rows = [[rng.choice([0, 1, 1.5, 4]), rng.choice("pq")] for _ in range(rng.randint(1, 8))]
            outcomes |= self.check(rng, RankedRelation(("a", "b"), rows, SimilaritySpace(algebra, functions)))
        assert outcomes == {True, False}

    def test_violation_in_a_later_tile(self):
        # rows from 100 on share a, and b parts rows 100 and 101: the first
        # failing pair is (100, 101), several tiles into the table
        n = 130
        algebra = builtin_algebra("product")
        fn = builtin_similarity("exp_euclidean", algebra, {"c": 0})
        rows = [(100 + k, 100 + k) if k < 100 else (5, 5) for k in range(n)]
        rows[101] = (5, 6)
        rel = RankedRelation(("a", "b"), rows, SimilaritySpace(algebra, {"a": fn, "b": fn}))
        assert 100 >= 3 * (relational._TILE_PAIRS // n)
        f = F("a -> b")
        assert satisfies_relation(rel, f) == (False, RelationViolation(f, *self.first_violation(rel, f)))
        assert satisfies_relation(rel, f)[1].i == 100

    def test_violation_before_a_misplaced_vector(self):
        algebra = builtin_algebra("product")
        fn = builtin_similarity("exp_euclidean", algebra, {"c": 0})
        rel = RankedRelation(("a", "b"), [(0, 0), (0, 5), ((1, 2), 0)],
                             SimilaritySpace(algebra, {"a": fn, "b": fn}))
        f = F("a -> b")
        assert satisfies_relation(rel, f) == (False, RelationViolation(f, *self.first_violation(rel, f)))
        violation = satisfies_relation(rel, f)[1]
        assert (violation.i, violation.j) == (0, 1)

    def test_misplaced_vector_before_a_violation(self):
        algebra = builtin_algebra("product")
        fn = builtin_similarity("exp_euclidean", algebra, {"c": 0})
        rel = RankedRelation(("a", "b"), [(0, 0), ((1, 2), 5), (0, 5)],
                             SimilaritySpace(algebra, {"a": fn, "b": fn}))
        with pytest.raises(InvalidRelationError, match="exp_euclidean needs two numbers"):
            satisfies_relation(rel, F("a -> b"))

    def test_unhashable_values(self):
        # no domain: a nested list stays a tuple of lists, an object a dict
        doc = {
            "algebra": "product", "scheme": ["a", "b"],
            "similarity": {"a": {"kind": "equality", "bottom": 0.5},
                           "b": {"kind": "equality", "bottom": 0.5}},
            "tuples": [[[[1, 2], [3]], "x"], [{"k": 1}, "y"], [[[1, 2], [3]], "x"],
                       [{"k": 1}, "y"]],
        }
        rel = relation_from_json(doc)
        assert relational._code_column(rel, 0)[0].tolist() == [0, 1, 2, 3]
        for f, holds in ((F("a -> b"), True), (F("b -> a"), True), (F("1 -> a"), False)):
            expected = self.first_violation(rel, f)
            assert (expected is None) == holds
            if holds:
                assert satisfies_relation(rel, f) == (True, None)
            else:
                assert satisfies_relation(rel, f) == (False, RelationViolation(f, *expected))
        doc["tuples"][3][1] = "x"
        f = F("a -> b")
        assert satisfies_relation(relation_from_json(doc), f) == (
            False, RelationViolation(f, 1, 3, 1.0, 0.5))

    @pytest.mark.parametrize("b,holds", [(lambda x, y: Fraction(1, 1 + abs(x - y)), True),
                                         (lambda x, y: Fraction(1, 1 + 2 * abs(x - y)), False)],
                             ids=["holds", "fails"])
    def test_degrees_numpy_cannot_hold_safely(self, monkeypatch, b, holds):
        # a Fraction array has dtype object: each tile falls back to the pair scan
        scans = []
        scan = relational._scan_failure
        monkeypatch.setattr(relational, "_scan_failure", lambda *args: scans.append(1) or scan(*args))
        functions = {"a": lambda x, y: Fraction(1, 1 + 2 * abs(x - y)), "b": b}
        rows = [(k % 3, k % 3) for k in range(6)] + [(3, 4)]
        rel = RankedRelation(("a", "b"), rows, SimilaritySpace(builtin_algebra("product"), functions))
        f = F("a -> b")
        expected = self.first_violation(rel, f)
        assert (expected is None) == holds
        if holds:
            assert satisfies_relation(rel, f) == (True, None)
        else:
            assert satisfies_relation(rel, f) == (False, RelationViolation(f, *expected))
        assert scans

    def test_memory_stays_bounded(self):
        # a full n x n float64 matrix at 1500 rows would take 18 MB
        algebra = builtin_algebra("product")
        fn = builtin_similarity("exp_euclidean", algebra, {"c": 1})
        rows = [(k % 10, k % 10) for k in range(1500)]
        rel = RankedRelation(("a", "b"), rows, SimilaritySpace(algebra, {"a": fn, "b": fn}))
        tracemalloc.start()
        try:
            assert satisfies_relation(rel, F("a a -> b")) == (True, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_memory_stays_bounded_across_formulas(self):
        # three formulas share a and b, and c is read by one: still one
        # tile per attribute, never an n x n matrix
        algebra = builtin_algebra("product")
        fn = builtin_similarity("exp_euclidean", algebra, {"c": 1})
        rows = [(k % 10, k % 10, k % 7) for k in range(1500)]
        rel = RankedRelation(("a", "b", "c"), rows,
                             SimilaritySpace(algebra, {"a": fn, "b": fn, "c": fn}))
        tracemalloc.start()
        try:
            assert relation_models(rel, parse_theory("a a -> b\nb -> a\na b c -> c")) == (
                True, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestScreen:
    """The exp_euclidean screen: np.exp decides the pairs whose sides the
    margin separates, math.exp the near ties, so verdicts and violations are
    those of TestAgainstPairScan.first_violation, bit for bit, also when
    the fast exponential is off by many ULP."""

    KINDS = ["product", "min", "lukasiewicz"]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def cases(kind):
        """(relation, formula, first violation) of near-tie relations: b is a
        with some values moved by one ULP, v is b as vector2, e an equality
        column; formula sides repeat attributes up to 64 times. Also the
        kinds of near ties the exact degrees show off the diagonal."""
        rng = random.Random(f"screen:{kind}")
        algebra = builtin_algebra(kind)
        cases, ties = [], set()
        for _ in range(12):
            fn = builtin_similarity("exp_euclidean", algebra, {"c": rng.choice([0, 1, 3])})
            eq = builtin_similarity("equality", algebra, {"bottom": 0.5})
            rows = []
            for _ in range(rng.randint(2, 8)):
                a = rng.choice([0, 0.5, 1.0, 2, 2.0, rng.uniform(0, 3)])
                b = a if rng.random() < 0.4 else math.nextafter(a, rng.choice([-1, 4]))
                rows.append((a, b, (b, 0.0), "x" if a < 1 else "y"))
            rel = RankedRelation(("a", "b", "v", "e"), rows, SimilaritySpace(
                algebra, {"a": fn, "b": fn, "v": fn, "e": eq}))
            for _ in range(10):
                k, m = rng.choice([1, 2, 3, 63, 64]), rng.choice([0, 1, 2])
                x, y, z = rng.choice("abv"), rng.choice("abv"), rng.choice("abve")
                f = F(" ".join([x] * k + [z] * m) + " -> " + " ".join([y] * k + [z] * m))
                cases.append((rel, f, TestAgainstPairScan.first_violation(rel, f)))
                for i, j in itertools.product(range(len(rel)), repeat=2):
                    da = tuple_similarity(rel, i, j, f.antecedent)
                    db = tuple_similarity(rel, i, j, f.consequent)
                    if i != j and x != y:
                        ties.add("equal" if da == db else
                                 "one ULP" if abs(da - db) == math.ulp(max(da, db)) else None)
        return cases, ties

    @staticmethod
    def agree(cases):
        """How many cases satisfies_relation answers as the pair scan."""
        return sum(satisfies_relation(rel, f) == (
            (True, None) if expected is None else (False, RelationViolation(f, *expected)))
            for rel, f, expected in cases)

    @staticmethod
    def perturb(monkeypatch):
        """Make the fast exponential off by up to 64 ULP, at random."""
        rng = np.random.default_rng(64)
        calls = []

        def off(x):
            y = np.exp(x)
            calls.append(y.size)
            return y + rng.integers(-64, 65, y.shape) * np.spacing(y)

        monkeypatch.setattr(relational, "_approx_exp", off)
        return calls

    @pytest.mark.parametrize("kind", KINDS)
    def test_near_ties(self, kind):
        cases, ties = self.cases(kind)
        assert {"equal", "one ULP"} <= ties
        assert {expected is None for _, _, expected in cases} == {True, False}
        assert self.agree(cases) == len(cases)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_fast_exponential_off_by_64_ulp(self, monkeypatch, kind):
        cases, _ = self.cases(kind)
        calls = self.perturb(monkeypatch)
        assert self.agree(cases) == len(cases)
        assert calls

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_margin_gets_near_ties_wrong(self, monkeypatch, kind):
        # the control: without the margin the same perturbation changes answers
        cases, _ = self.cases(kind)
        self.perturb(monkeypatch)
        monkeypatch.setattr(relational, "_SCREEN_MARGIN", 0.0)
        assert self.agree(cases) < len(cases)

    def test_finite_degrees_skip_the_screen(self, monkeypatch):
        # equality and table degrees are exact: the fast exponential is not called
        calls = self.perturb(monkeypatch)
        rel = relation_from_json({
            "algebra": "product", "scheme": ["a", "b"],
            "similarity": {"a": {"kind": "equality", "bottom": 0.5},
                           "b": {"kind": "table", "labels": ["x", "y"],
                                 "values": [[1, 0.25], [0.25, 1]]}},
            "tuples": [[1, "x"], [2, "y"], [1, "y"]]})
        assert satisfies_relation(rel, F("a b -> b")) == (True, None)
        assert satisfies_relation(rel, F("a -> b")) == (
            False, RelationViolation(F("a -> b"), 0, 1, 0.5, 0.25))
        assert not calls


class TestJointScan:
    """relation_models on several formulas, which share one scan of the
    tiles, against TestAgainstPairScan.first_violation of each formula in
    theory order: the first one that fails or raises gives the answer."""

    @staticmethod
    def reference(rel, theory):
        """relation_models's answer, or the exception it must raise."""
        for f in theory.distinct_formulas():
            try:
                found = TestAgainstPairScan.first_violation(rel, f)
            except (InvalidRelationError, SchemeMismatchError) as exc:
                return exc
            if found is not None:
                return False, RelationViolation(f, *found)
        return True, None

    def agrees(self, rel, theory):
        """Assert relation_models gives the reference; the outcome's kind."""
        expected = self.reference(rel, theory)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as info:
                relation_models(rel, theory)
            assert str(info.value) == str(expected)
            return type(expected).__name__
        assert relation_models(rel, theory) == expected
        return "holds" if expected[0] else "fails"

    @staticmethod
    def formula(rng, scheme):
        # half the time the consequent is part of the antecedent, which holds
        # in these integral algebras unless a similarity raises
        ant = [a for a in scheme for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.5:
            con = [a for a in ant if rng.random() < 0.5]
        else:
            con = [a for a in scheme for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.05:
            ant.append("w")  # outside the scheme
        return f"{' '.join(ant) or '1'} -> {' '.join(con) or '1'}"

    @pytest.mark.parametrize("tile", [1, 2, 3, 7, relational._TILE_PAIRS])
    def test_random_theories(self, monkeypatch, tile):
        monkeypatch.setattr(relational, "_TILE_PAIRS", tile)
        rng = random.Random(f"joint:{tile}")
        scheme = ("a", "b", "c")
        outcomes = Counter()
        for _ in range(120):
            algebra = builtin_algebra(rng.choice(["product", "min", "lukasiewicz"]))
            exp_fn = builtin_similarity("exp_euclidean", algebra, {"c": rng.choice([-1, 0, 1])})
            table = builtin_similarity("table", algebra, {
                "labels": [0, 1, 2],
                "values": [[1.0 if r == c else rng.choice([0.0, 0.5, 0.9]) for c in range(3)]
                           for r in range(3)]})
            functions = {"a": exp_fn, "b": table,
                         "c": lambda x, y: 1.0 if x == y else 0.5}

            def value(attr):
                # a vector, or a value off the table, makes a similarity raise
                if rng.random() < 0.03:
                    return (1, 2) if attr == "a" else 7
                return rng.choice([0, 1, 2, 2.0] if attr != "b" else [0, 1, 2])

            rows = [[value(a) for a in scheme] for _ in range(rng.randint(2, 12))]
            rel = RankedRelation(scheme, rows, SimilaritySpace(algebra, functions))
            theory = parse_theory("\n".join(self.formula(rng, scheme)
                                            for _ in range(rng.randint(2, 4))))
            outcomes[self.agrees(rel, theory)] += 1
        assert set(outcomes) == {"holds", "fails", "InvalidRelationError", "SchemeMismatchError"}

    N = 100

    def relation(self, bad_first_d=False):
        # a -> b fails only at (N-2, N-1), the last tile; c -> a only at
        # (0, 1), the first; d's similarity raises on row 0 if bad_first_d
        n = self.N
        algebra = builtin_algebra("product")
        eq = builtin_similarity("equality", algebra, {"bottom": 0.5})
        a = list(range(n - 1)) + [n - 2]
        c = [0] + list(range(n - 1))
        d = [(1, 2) if bad_first_d else 0] + [0] * (n - 1)
        rows = [(a[k], k, c[k], d[k]) for k in range(n)]
        functions = {"a": eq, "b": eq, "c": eq,
                     "d": builtin_similarity("exp_euclidean", algebra, {"c": 0})}
        rel = RankedRelation(("a", "b", "c", "d"), rows, SimilaritySpace(algebra, functions))
        assert len(range(0, n, relational._TILE_PAIRS // n)) >= 3
        return rel

    def test_a_later_tile_of_the_first_formula_wins(self):
        rel = self.relation()
        ok, v = relation_models(rel, parse_theory("a -> b\nc -> a"))
        assert (ok, v.formula, v.i, v.j) == (False, F("a -> b"), self.N - 2, self.N - 1)
        assert self.agrees(rel, parse_theory("a -> b\nc -> a")) == "fails"
        ok, v = relation_models(rel, parse_theory("c -> a\na -> b"))
        assert (v.formula, v.i, v.j) == (F("c -> a"), 0, 1)

    def test_a_violation_beats_a_later_formulas_earlier_error(self):
        rel = self.relation(bad_first_d=True)
        with pytest.raises(InvalidRelationError):
            satisfies_relation(rel, F("d -> a"))
        theory = parse_theory("a -> b\nd -> a")
        ok, v = relation_models(rel, theory)
        assert (ok, v.formula, v.i, v.j) == (False, F("a -> b"), self.N - 2, self.N - 1)
        assert self.agrees(rel, theory) == "fails"
        assert self.agrees(rel, parse_theory("a -> a\nd -> a")) == "InvalidRelationError"

    def test_a_formula_outside_the_scheme(self):
        rel = self.relation()
        ok, v = relation_models(rel, parse_theory("a -> b\nw -> a\nc -> a"))
        assert (ok, v.formula, v.i, v.j) == (False, F("a -> b"), self.N - 2, self.N - 1)
        with pytest.raises(SchemeMismatchError, match="w"):
            relation_models(rel, parse_theory("a -> a\nw -> a\nc -> a"))

    def test_a_theory_that_holds(self):
        rel = self.relation()
        theory = parse_theory("a -> a\nb c -> b\nb -> a\na b c d -> d")
        assert self.agrees(rel, theory) == "holds"

    @pytest.mark.parametrize("kernel", [True, False], ids=["exponents", "callable"])
    def test_each_attribute_tile_is_computed_once(self, kernel):
        # three holding formulas read x: its exponents kernel runs once per
        # tile, and a plain callable once per distinct pair of (tile value,
        # column value) per tile
        n = 100
        algebra = builtin_algebra("product")
        exp_fn = builtin_similarity("exp_euclidean", algebra, {"c": 0})
        calls = []
        if kernel:
            exponents = exp_fn.exponents

            def x_fn(a, b):
                return exp_fn(a, b)

            x_fn.exponents = lambda lefts, rights: calls.append(len(lefts)) or exponents(lefts, rights)
        else:
            def x_fn(a, b):
                calls.append(1)
                return exp_fn(a, b)
        rows = [(k % 13, k % 5) for k in range(n)]
        rel = RankedRelation(("x", "y"), rows,
                             SimilaritySpace(algebra, {"x": x_fn, "y": exp_fn}))
        theory = parse_theory("x -> x\nx x -> x\nx y -> y")
        assert relation_models(rel, theory) == (True, None)
        step = relational._TILE_PAIRS // n
        tiles = [range(start, min(n, start + step)) for start in range(0, n, step)]
        assert len(tiles) >= 3
        if kernel:
            assert len(calls) == len(tiles)
        else:
            assert len(calls) == sum(len({rows[i][0] for i in t}) * 13 for t in tiles)


# ============================================================
# Bridges to evaluations
# ============================================================


class TestBridges:
    def test_evaluation_to_relation_round_trip(self, nonlinear_algebra):
        rng = random.Random(31)
        algebras = (builtin_algebra("product"), nonlinear_algebra)
        names = ("p", "q", "r")
        for _ in range(60):
            algebra = rng.choice(algebras)
            if algebra.__class__.__name__ == "UnitIntervalPomonoid":
                assignment = {v: round(rng.random(), 3) for v in names}
            else:
                assignment = {v: rng.randrange(algebra.size) for v in names}
            e = Evaluation(algebra, assignment)
            rel = evaluation_to_relation(e)
            assert len(rel) == 2
            pool = [v for v in names for _ in range(2)]
            ant = Counter(rng.sample(pool, rng.randint(0, 3)))
            cons = Counter(rng.sample(pool, rng.randint(0, 3)))
            f = Mfd(
                parse_multiset(" ".join(ant.elements()) or "1"),
                parse_multiset(" ".join(cons.elements()) or "1"),
            )
            assert satisfies(e, f) == satisfies_relation(rel, f)[0]

    def test_relation_to_evaluations_shape(self, housing_relation):
        evals = relation_to_evaluations(housing_relation)
        assert len(evals) == 16
        assignments = [tuple(sorted(e.assignment.items())) for e in evals]
        assert len(set(assignments)) == 7
        for i in range(4):
            for j in range(4):
                assert assignments[4 * i + j] == assignments[4 * j + i]

    def test_relation_to_evaluations_equivalence(self, housing_relation):
        evals = relation_to_evaluations(housing_relation)
        for f in (HOUSING_FD, F("price -> loc"), F("area -> price"), F("loc -> loc")):
            assert satisfies_relation(housing_relation, f)[0] == all(
                satisfies(e, f) for e in evals
            )

    def test_fraction_degrees_print(self):
        # a Fraction similarity is supported; its degrees print with str
        functions = {"a": lambda x, y: Fraction(1, 1 + abs(x - y))}
        rel = RankedRelation(("a",), [(0,), (1,)], SimilaritySpace(builtin_algebra("product"), functions))
        names = [e.degree_name("a") for e in relation_to_evaluations(rel)]
        assert names == ["1", "1/2", "1/2", "1"]

    def test_relation_models_matches_evaluations(self, housing_relation):
        theory = parse_theory("loc area -> price\nloc -> loc")
        evals = relation_to_evaluations(housing_relation)
        assert relation_models(housing_relation, theory)[0] == all(
            is_model(e, theory) for e in evals
        )


# ============================================================
# Built-in similarity kinds
# ============================================================


class TestBuiltinSimilarity:
    def test_exp_euclidean_scalar_and_vector(self):
        fn = builtin_similarity("exp_euclidean", builtin_algebra("product"), {"c": 2})
        assert fn(10.0, 10.0) == 1.0
        assert fn(10.0, 13.0) == pytest.approx(math.exp(-0.03))
        assert fn((0.0, 0.0), (3.0, 4.0)) == pytest.approx(math.exp(-0.05))

    @pytest.mark.parametrize("a,b,c,degree", [
        # squares summed left to right; the compensated sum() of Python
        # 3.12+ gives 0x1.f594df2881233p-4
        ((1.7, 0.6, 0.0), (0.1, 1.4, 1.1), 0, "0x1.f594df2881236p-4"),
        # squares as d * d; d ** 2 gives 0x1.60af86be85b86p-1
        ((3.6937877632262683, 0.5), (0, 0), 1, "0x1.60af86be85b87p-1"),
    ])
    def test_exp_euclidean_degree_is_exact(self, a, b, c, degree):
        fn = builtin_similarity("exp_euclidean", builtin_algebra("product"), {"c": c})
        assert fn(a, b) == float.fromhex(degree)

    def test_exp_euclidean_vector_mismatch(self):
        fn = builtin_similarity("exp_euclidean", builtin_algebra("product"), {"c": 2})
        with pytest.raises(InvalidRelationError):
            fn((1.0, 2.0), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("a,b", [(1, (1, 2)), ((1, 2), 1.5), ("x", "y"), (("x",), (1,))])
    def test_exp_euclidean_uncomparable_values(self, a, b):
        fn = builtin_similarity("exp_euclidean", builtin_algebra("product"), {"c": 2})
        with pytest.raises(InvalidRelationError):
            fn(a, b)

    @pytest.mark.parametrize("c", [0, 2, 400])
    def test_exp_euclidean_infinite_distance_is_out_of_range(self, c):
        # |1e308 - -1e308| overflows: the degree used to be 0.0, or NaN
        # once 10^-c underflows to 0.0
        fn = builtin_similarity("exp_euclidean", builtin_algebra("product"), {"c": c})
        # the last length is 1.5e308 * sqrt(2), beyond float range however scaled
        for a, b in ((1e308, -1e308), ((1e308, 0), (-1e308, 5)), ((1.5e308, 1.5e308), (0, 0))):
            with pytest.raises(InvalidRelationError, match="within float range"):
                fn(a, b)
        assert fn(1e308, 1e308) == 1.0

    @pytest.mark.parametrize("c", [0, 2, 200])
    def test_exp_euclidean_overflowing_squares_get_a_degree(self, c):
        # (2e200)**2 overflows, the distance 2e200 does not: it is computed
        # scaled by the largest difference, which gives it exactly here
        fn = builtin_similarity("exp_euclidean", builtin_algebra("product"), {"c": c})
        scale = 10.0 ** -c
        assert fn((1e200, 0), (-1e200, 0)) == math.exp(-scale * 2e200)
        assert fn((1e200, 0, 1.0), (-1e200, 0, 1)) == math.exp(-scale * 2e200)
        assert fn((3e200, 4e200), (0, 0)) == pytest.approx(math.exp(-scale * 5e200), rel=1e-14)

    @pytest.mark.parametrize("c", ["1", True, False, None, [1], "nan"])
    def test_exp_euclidean_c_is_an_int_or_a_float(self, c):
        # float() used to read "1" and true as 1.0
        with pytest.raises(InvalidRelationError) as info:
            builtin_similarity("exp_euclidean", builtin_algebra("product"), {"c": c})
        assert str(info.value) == f"exp_euclidean c must be an int or a float, got {c!r}"
        for number in (1, 1.0, np.float64(1)):
            fn = builtin_similarity("exp_euclidean", builtin_algebra("product"), {"c": number})
            assert fn(0, 10) == math.exp(-1)

    @pytest.mark.parametrize("c", [-400, -math.inf, math.nan])
    def test_exp_euclidean_scale_is_finite(self, c):
        # a number whose scale 10^-c is not finite is told so, not its type
        with pytest.raises(InvalidRelationError) as info:
            builtin_similarity("exp_euclidean", builtin_algebra("product"), {"c": c})
        assert str(info.value) == f"exp_euclidean scale 10^-c is not finite for c = {c!r}"

    def test_exp_euclidean_needs_real_degrees(self):
        with pytest.raises(InvalidRelationError):
            builtin_similarity("exp_euclidean", builtin_algebra("bool2"), {"c": 2})

    def test_equality_finite(self):
        b = builtin_algebra("bool2")
        fn = builtin_similarity("equality", b, {"bottom": "0"})
        assert fn("x", "x") == b.unit
        assert fn("x", "y") == b.index_of("0")

    def test_equality_real(self):
        fn = builtin_similarity(
            "equality", builtin_algebra("lukasiewicz"), {"bottom": 0.0}
        )
        assert fn(3, 3) == 1.0
        assert fn(3, 4) == 0.0

    def test_table(self, nonlinear_algebra):
        nl = nonlinear_algebra
        fn = builtin_similarity(
            "table",
            nl,
            {
                "labels": ["red", "blue"],
                "values": [["1", "a"], ["a", "1"]],
            },
        )
        assert fn("red", "red") == nl.unit
        assert fn("red", "blue") == nl.index_of("a")
        with pytest.raises(InvalidRelationError):
            fn("red", "green")

    def test_table_must_be_reflexive(self, nonlinear_algebra):
        with pytest.raises(InvalidRelationError):
            builtin_similarity(
                "table",
                nonlinear_algebra,
                {"labels": ["red", "blue"], "values": [["a", "a"], ["a", "1"]]},
            )

    def test_table_shape_errors(self, nonlinear_algebra):
        with pytest.raises(InvalidRelationError):
            builtin_similarity(
                "table",
                nonlinear_algebra,
                {"labels": ["red", "red"], "values": [["1", "1"], ["1", "1"]]},
            )
        with pytest.raises(InvalidRelationError):
            builtin_similarity(
                "table",
                nonlinear_algebra,
                {"labels": ["red", "blue"], "values": [["1", "a"]]},
            )
        # a string is no array: "rb" used to be read as the labels r and b
        for labels, values in (("rb", [["1", "a"], ["a", "1"]]), (["r", "b"], ["1a", "a1"]),
                               (["r", "b"], "1aa1")):
            with pytest.raises(InvalidRelationError, match="must be a list"):
                builtin_similarity(
                    "table", nonlinear_algebra, {"labels": labels, "values": values})

    @pytest.mark.parametrize("bad", [2.5, -0.5, "-3", "0.5", float("nan"), True, None, [0.5]])
    def test_table_degrees_lie_in_the_unit_interval(self, bad):
        # float() used to let 2.5, "-3" and NaN through as off-diagonal degrees
        with pytest.raises(InvalidRelationError, match="not a degree in"):
            builtin_similarity(
                "table",
                builtin_algebra("product"),
                {"labels": ["x", "y"], "values": [[1, bad], [0.5, 1]]},
            )

    def test_table_over_the_unit_interval(self):
        fn = builtin_similarity(
            "table", builtin_algebra("min"), {"labels": ["x", "y"], "values": [[1, 0], [0.25, 1.0]]}
        )
        assert (fn("x", "x"), fn("x", "y"), fn("y", "x")) == (1.0, 0.0, 0.25)

    def test_unknown_kind(self):
        with pytest.raises(InvalidRelationError):
            builtin_similarity("cosine", builtin_algebra("product"), {})


# ============================================================
# Construction and the file format
# ============================================================


class TestConstruction:
    def test_row_length_checked(self):
        space = SimilaritySpace(
            builtin_algebra("product"), {"a": lambda x, y: 1.0}
        )
        with pytest.raises(InvalidRelationError):
            RankedRelation(("a",), ((1.0, 2.0),), space)

    def test_similarity_must_cover_scheme(self):
        space = SimilaritySpace(builtin_algebra("product"), {"a": lambda x, y: 1.0})
        with pytest.raises(SchemeMismatchError):
            RankedRelation(("a", "b"), ((1.0, 2.0),), space)

    def test_space_degree_unknown_attr(self):
        space = SimilaritySpace(builtin_algebra("product"), {"a": lambda x, y: 1.0})
        with pytest.raises(SchemeMismatchError):
            space.degree("b", 1, 2)


class TestFileFormat:
    def base_doc(self):
        return {
            "algebra": "product",
            "scheme": ["a", "b"],
            "domains": {"a": "scalar", "b": "scalar"},
            "similarity": {
                "a": {"kind": "exp_euclidean", "c": 1},
                "b": {"kind": "exp_euclidean", "c": 1},
            },
            "tuples": [[1, 2], [3, 4]],
        }

    def test_minimal_document(self):
        rel = relation_from_json(self.base_doc())
        assert rel.scheme == ("a", "b")
        assert len(rel) == 2
        assert rel.tuples[1] == (3, 4)

    def test_inline_algebra(self, nonlinear_algebra):
        from mfdlogic import algebra_to_json

        doc = {
            "algebra": algebra_to_json(nonlinear_algebra),
            "scheme": ["x"],
            "similarity": {"x": {"kind": "equality", "bottom": "0"}},
            "tuples": [["u"], ["v"]],
        }
        rel = relation_from_json(doc)
        assert rel.similarity.algebra == nonlinear_algebra

    def test_missing_keys(self):
        doc = self.base_doc()
        del doc["similarity"]
        with pytest.raises(InvalidRelationError):
            relation_from_json(doc)

    @pytest.mark.parametrize(
        "spec,key",
        [
            ({"c": 1}, "kind"),
            ({"kind": "exp_euclidean"}, "c"),
            ({"kind": "table", "values": [[1]]}, "labels"),
            ({"kind": "table", "labels": ["x"]}, "values"),
        ],
    )
    def test_missing_similarity_key_names_the_attribute(self, spec, key):
        doc = self.base_doc()
        doc["similarity"]["b"] = spec
        with pytest.raises(InvalidRelationError) as info:
            relation_from_json(doc)
        assert str(info.value) == (
            f"malformed relation description: similarity of attribute 'b' has no key '{key}'"
        )

    def test_missing_attribute_similarity(self):
        doc = self.base_doc()
        del doc["similarity"]["b"]
        with pytest.raises(SchemeMismatchError):
            relation_from_json(doc)

    def test_bad_row_length(self):
        doc = self.base_doc()
        doc["tuples"].append([7])
        with pytest.raises(InvalidRelationError):
            relation_from_json(doc)

    def test_domain_enforcement(self):
        doc = self.base_doc()
        doc["tuples"][0][0] = "oops"
        with pytest.raises(InvalidRelationError):
            relation_from_json(doc)

    def test_vector_domain(self):
        doc = self.base_doc()
        doc["domains"]["a"] = "vector2"
        doc["tuples"] = [[[1, 2], 5], [[3, 4], 6]]
        rel = relation_from_json(doc)
        assert rel.tuples[0][0] == (1, 2)
        doc["tuples"][0][0] = [1, 2, 3]
        with pytest.raises(InvalidRelationError):
            relation_from_json(doc)

    def test_unknown_domain(self):
        doc = self.base_doc()
        doc["domains"]["a"] = "matrix"
        with pytest.raises(InvalidRelationError):
            relation_from_json(doc)

    @pytest.mark.parametrize("domain,value", [
        ("vector-1", [1]), ("vector0", []), ("vector+2", [1, 2]),
        ("vector 2", [1, 2]), ("vector\u0662", [1, 2]), ("vector", [1]),
    ])
    def test_vector_width_is_ascii_digits_from_1(self, domain, value):
        doc = self.base_doc()
        doc["domains"]["a"] = domain
        doc["tuples"] = [[value, 5]]
        with pytest.raises(InvalidRelationError, match="unknown domain"):
            relation_from_json(doc)

    def test_token_domain(self):
        doc = self.base_doc()
        doc["domains"] = {"a": "token", "b": "scalar"}
        doc["similarity"]["a"] = {"kind": "equality", "bottom": 0}
        doc["tuples"] = [["x", 1], ["y", 2]]
        assert relation_from_json(doc).tuples == (("x", 1), ("y", 2))
        doc["tuples"][1][0] = 7
        with pytest.raises(InvalidRelationError, match="expects a token, got 7"):
            relation_from_json(doc)

    def test_tuples_must_be_a_list_of_lists(self):
        doc = self.base_doc()
        doc["scheme"], doc["tuples"] = ["a"], {"x": 1}
        with pytest.raises(InvalidRelationError, match="tuples must be a list"):
            relation_from_json(doc)
        doc["tuples"] = [{"x": 1}]
        with pytest.raises(InvalidRelationError, match="a row must be a list"):
            relation_from_json(doc)

    def test_scheme_names_are_distinct(self):
        doc = self.base_doc()
        doc["scheme"] = ["a", "a"]
        with pytest.raises(InvalidRelationError, match="repeats an attribute"):
            relation_from_json(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, math.nan]])
    def test_non_finite_values_are_rejected(self, value):
        doc = self.base_doc()
        doc["domains"] = {}
        doc["tuples"][1][0] = value
        with pytest.raises(InvalidRelationError, match="not finite"):
            relation_from_json(doc)

    @pytest.mark.parametrize("domains,row,message", [
        ({"b": "vector2"}, [1, [1.0, math.nan]], "row [1, [1.0, nan]] holds a number that is not finite"),
        ({}, [1, [[math.inf]]], "row [1, [[inf]]] holds a number that is not finite"),
        ({"a": "token"}, [-math.inf, 1], "row [-inf, 1] holds a number that is not finite"),
        # a number that is not finite is named before any other fault of its row
        ({"a": "scalar"}, [True, math.nan], "row [True, nan] holds a number that is not finite"),
        ({}, [math.nan], "row [nan] holds a number that is not finite"),
        ({"a": "scalar"}, [True, 1], "attribute 'a' expects a scalar, got True"),
        ({"b": "vector2"}, [1, [1, 2, 3]], "attribute 'b' expects a 2-vector, got [1, 2, 3]"),
        ({"b": "vector2"}, [1, [True, 2]], "attribute 'b' expects a 2-vector, got [True, 2]"),
        ({}, [1, 2, 3], "row [1, 2, 3] has 3 values for 2 attributes"),
    ])
    def test_row_errors_name_the_row(self, domains, row, message):
        doc = self.base_doc()
        doc["domains"] = domains
        doc["tuples"].insert(0, row)
        with pytest.raises(InvalidRelationError) as caught:
            relation_from_json(doc)
        assert str(caught.value) == message

    def test_ragged_vectors_load_without_a_domain(self):
        doc = self.base_doc()
        doc["domains"] = {}
        doc["tuples"] = [[1, [1.0]], [2, [1.0, 2.0]], [3, (0.5, 1, 2)]]
        assert relation_from_json(doc).tuples == ((1, (1.0,)), (2, (1.0, 2.0)), (3, (0.5, 1, 2)))

    def test_load_relation_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidRelationError):
            load_relation(str(bad))
        with pytest.raises(FileNotFoundError):
            load_relation(str(tmp_path / "missing.json"))

    def test_load_relation_round_trip(self, tmp_path):
        path = tmp_path / "rel.json"
        path.write_text(json.dumps(self.base_doc()))
        rel = load_relation(str(path))
        assert rel.scheme == ("a", "b")


# ============================================================
# Classical correspondence over bool2
# ============================================================


class TestClassicalCorrespondence:
    def make_relation(self, rows):
        b = builtin_algebra("bool2")
        fn = builtin_similarity("equality", b, {"bottom": "0"})
        space = SimilaritySpace(b, {a: fn for a in ("a", "b", "c")})
        return RankedRelation(("a", "b", "c"), rows, space)

    def classical_ok(self, rows, ant, cons):
        for r1 in rows:
            for r2 in rows:
                if all(r1[k] == r2[k] for k in ant):
                    if not all(r1[k] == r2[k] for k in cons):
                        return False
        return True

    def test_random_tables(self):
        rng = random.Random(61)
        cols = {"a": 0, "b": 1, "c": 2}
        some_failures = some_passes = 0
        for _ in range(20):
            rows = tuple(
                tuple(rng.choice("xy") for _ in range(3))
                for _ in range(rng.randint(2, 4))
            )
            rel = self.make_relation(rows)
            for text in ("a -> b", "a b -> c", "c -> a b", "b -> b"):
                f = F(text)
                ant = [cols[x] for x in f.antecedent.support]
                cons = [cols[x] for x in f.consequent.support]
                expected = self.classical_ok(rows, ant, cons)
                assert satisfies_relation(rel, f)[0] == expected
                some_failures += not expected
                some_passes += expected
        assert some_failures and some_passes
