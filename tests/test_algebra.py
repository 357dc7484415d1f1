"""Degree algebras: axioms, evaluation, enumeration, and completion."""

import collections
import copy
import hashlib
import itertools
import json
import math
import pickle
import random
import re
import time
import types
from fractions import Fraction

import numpy as np
import pytest

import oracles
from mfdlogic import (
    BUILTIN_ALGEBRA_NAMES,
    ENUMERATION_SIZE_CAP,
    Evaluation,
    FinitePomonoid,
    FiniteResiduatedLattice,
    InvalidAlgebraError,
    UnassignedAttributeError,
    UnitIntervalPomonoid,
    Violation,
    algebra_from_json,
    algebra_to_json,
    builtin_algebra,
    downset_completion,
    elem_power,
    enumerate_pomonoids,
    evaluate,
    is_model,
    load_algebra,
    parse_mfd,
    parse_multiset,
    parse_theory,
    satisfies,
    validate,
    validate_unit_interval,
)
from mfdlogic.algebra import (
    _COMPLETION_CAP,
    _canonical_order,
    _downsets,
    _matrix,
    _pomonoids_of_size,
    _poset_classes,
    _posets_with_top,
)


def relabeled(algebra, perm):
    """Isomorphic copy whose element i is the original element perm[i]."""
    n = algebra.size
    inv = [0] * n
    for pos, orig in enumerate(perm):
        inv[orig] = pos
    leq = [[algebra.leq_table[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    times = [
        [inv[algebra.times_table[perm[i]][perm[j]]] for j in range(n)] for i in range(n)
    ]
    names = tuple(f"v{i}" for i in range(n))
    return FinitePomonoid(names, inv[algebra.unit], leq, times)


def goedel_chain(n):
    """The chain c0 < c1 < ... < c(n-1) with the minimum as product."""
    return FinitePomonoid(
        [f"c{i}" for i in range(n)],
        unit=n - 1,
        leq_table=[[a <= b for b in range(n)] for a in range(n)],
        times_table=[[min(a, b) for b in range(n)] for a in range(n)],
    )


def _pickled(protocol):
    return lambda value: pickle.loads(pickle.dumps(value, protocol))


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.fixture
def bool2():
    return builtin_algebra("bool2")


@pytest.fixture
def chain3():
    """The three-element chain 0 < m < 1 with m*m = 0."""
    return FinitePomonoid(
        ("0", "m", "1"),
        unit=2,
        leq_table=((True, True, True), (False, True, True), (False, False, True)),
        times_table=((0, 0, 0), (0, 0, 1), (0, 1, 2)),
    )


# ============================================================
# Unit-interval algebras
# ============================================================


class TestUnitInterval:
    def test_times_golden(self):
        assert builtin_algebra("product").times(0.5, 0.6) == pytest.approx(0.3)
        assert builtin_algebra("min").times(0.5, 0.6) == 0.5
        assert builtin_algebra("lukasiewicz").times(0.5, 0.6) == pytest.approx(0.1)
        assert builtin_algebra("lukasiewicz").times(0.3, 0.4) == 0.0

    def test_order_and_unit(self):
        a = builtin_algebra("product")
        assert a.unit == 1.0
        assert a.leq_holds(0.2, 0.7)
        assert not a.leq_holds(0.7, 0.2)
        assert a.leq_holds(0.5, 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            UnitIntervalPomonoid("drastic")

    @pytest.mark.parametrize("kind", UnitIntervalPomonoid.KINDS)
    def test_spot_check_clean(self, kind):
        for seed in (0, 7):
            assert validate_unit_interval(UnitIntervalPomonoid(kind), seed=seed) == []

    def test_spot_check_catches_fake(self):
        class Probabilistic(UnitIntervalPomonoid):
            # 'probabilistic sum' is not integral: a+b-ab >= max(a, b)
            def times(self, a, b):
                return a + b - a * b

        bad = Probabilistic("product")
        axioms = {v.axiom for v in validate_unit_interval(bad, seed=7)}
        assert "integrality" in axioms

    @pytest.mark.parametrize("case", [
        # a*a*b: the left factor counts twice
        ("times-commutative", lambda a, b: a * a * b,
         lambda t, a, b: abs(t(a, b) - t(b, a)) > 1e-12),
        # commutative, integral and unital, but the correction term is not associative
        ("times-associative", lambda a, b: a * b * (1 + (1 - a) * (1 - b)),
         lambda t, a, b, c: abs(t(t(a, b), c) - t(a, t(b, c))) > 1e-12),
        # x(1-x) falls again above 1/2, so large degrees multiply to less
        ("times-monotone", lambda a, b: min(a, b) if max(a, b) == 1.0 else a * b * (1 - a * b),
         lambda t, lo, hi, c: lo <= hi and t(lo, c) > t(hi, c) + 1e-12),
    ], ids=lambda case: case[0])
    def test_spot_check_catches_fake_law(self, case):
        axiom, times, fails = case

        class Fake(UnitIntervalPomonoid):
            def times(self, a, b):
                return times(a, b)

        found = [v for v in validate_unit_interval(Fake("product"), seed=7) if v.axiom == axiom]
        assert found
        assert all(fails(times, *v.witness) for v in found)


# ============================================================
# Finite pomonoids and validation
# ============================================================


class TestFinitePomonoid:
    def test_bool2_shape(self, bool2):
        assert bool2.size == 2
        assert bool2.unit == 1
        assert bool2.element_names == ("0", "1")
        assert bool2.times(0, 1) == 0
        assert bool2.leq_holds(0, 1)
        assert not bool2.leq_holds(1, 0)
        assert bool2.index_of("0") == 0
        assert bool2.is_linear()
        assert validate(bool2) == []

    def test_index_of_unknown(self, bool2):
        with pytest.raises(ValueError):
            bool2.index_of("2")

    def test_np_tables_match(self, bool2):
        times, leq = bool2.np_tables()
        assert times.tolist() == [list(r) for r in bool2.times_table]
        assert leq.tolist() == [list(r) for r in bool2.leq_table]

    def test_construction_errors(self):
        with pytest.raises(ValueError):
            FinitePomonoid((), 0, (), ())
        with pytest.raises(ValueError):
            FinitePomonoid(("a", "a"), 0, ((True, True), (False, True)), ((0, 0), (0, 1)))
        with pytest.raises(ValueError):
            FinitePomonoid(("a", "b"), 5, ((True, True), (False, True)), ((0, 0), (0, 1)))
        with pytest.raises(ValueError):
            FinitePomonoid(("a", "b"), 1, ((True, True),), ((0, 0), (0, 1)))
        with pytest.raises(ValueError):
            FinitePomonoid(("a", "b"), 1, ((True, True), (False, True)), ((0, 9), (0, 1)))

    @pytest.mark.parametrize(
        "table,rows,message",
        [
            ("leq", ((True, True),), "leq table must be 2x2"),
            ("leq", ((True, True), (False,)), "leq table must be 2x2"),
            ("times", ((0, 0), (0, 1), (1, 1)), "times table must be 2x2"),
            ("times", ((0, 9), (0, 1)), "times table entry out of range"),
            ("meet", ((0, 0, 0), (0, 1, 1)), "meet table must be 2x2"),
            ("meet", ((0, 0), (-1, 1)), "meet table entry out of range"),
            ("join", ((0, 1),), "join table must be 2x2"),
            ("join", ((0, 2), (1, 1)), "join table entry out of range"),
            ("residuum", ((1, 1), (0,)), "residuum table must be 2x2"),
            ("residuum", ((1, 1), (0, 5)), "residuum table entry out of range"),
        ],
    )
    def test_table_shape_and_range_messages(self, table, rows, message):
        tables = {
            "leq": ((True, True), (False, True)),
            "times": ((0, 0), (0, 1)),
            "meet": ((0, 0), (0, 1)),
            "join": ((0, 1), (1, 1)),
            "residuum": ((1, 1), (0, 1)),
        }
        tables[table] = rows
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteResiduatedLattice(
                ("0", "1"), 1, tables["leq"], tables["times"], 0,
                tables["meet"], tables["join"], tables["residuum"],
            )
        if table in ("leq", "times"):
            with pytest.raises(ValueError, match=f"^{message}$"):
                FinitePomonoid(("0", "1"), 1, tables["leq"], tables["times"])

    @pytest.mark.parametrize("bottom", [-1, 2])
    def test_bottom_out_of_range(self, bottom):
        with pytest.raises(ValueError, match=f"^bottom index {bottom} out of range$"):
            FiniteResiduatedLattice(
                ("0", "1"), 1, ((True, True), (False, True)), ((0, 0), (0, 1)), bottom,
                ((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 1)),
            )

    def test_set_slots_cannot_be_rebound(self):
        before = list(enumerate_pomonoids(3))
        shared = before[2]
        for name, value in (("unit", 0), ("times_table", ()), ("_np", None), ("size", 1)):
            with pytest.raises(AttributeError):
                setattr(shared, name, value)
        assert list(enumerate_pomonoids(3)) == before

    def test_slots_cannot_be_deleted(self):
        tables = lambda: [(a.unit, a.leq_table, a.times_table) for a in enumerate_pomonoids(3)]
        before = tables()
        shared = list(enumerate_pomonoids(3))[2]
        for name in ("unit", "leq_table", "times_table", "element_names", "_np"):
            with pytest.raises(AttributeError):
                delattr(shared, name)
        with pytest.raises(AttributeError):
            shared.unit = 1
        assert tables() == before

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, *map(_pickled, PROTOCOLS)],
        ids=["copy", "deepcopy", *(f"pickle{p}" for p in PROTOCOLS)],
    )
    def test_copies_and_pickles_round_trip(self, round_trip, nonlinear_algebra):
        query = parse_mfd("a a b -> c")
        lattice, _ = downset_completion(nonlinear_algebra)
        values = (query.antecedent, query, parse_theory("a -> b\nb b -> c"),
                  nonlinear_algebra, lattice, UnitIntervalPomonoid("min"))
        for value in values:
            if isinstance(value, FinitePomonoid):
                value.np_tables()
            twin = round_trip(value)
            assert type(twin) is type(value) and twin is not value
            assert twin == value and hash(twin) == hash(value)
            if isinstance(value, FinitePomonoid):
                assert algebra_to_json(twin) == algebra_to_json(value)
                assert twin.np_tables()[0].tolist() == [list(r) for r in value.times_table]

    def test_describe_mentions_everything(self, nonlinear_algebra):
        text = nonlinear_algebra.describe()
        for name in nonlinear_algebra.element_names:
            assert name in text
        assert "unit" in text


class TestValidate:
    def test_nonlinear_golden_is_clean(self, nonlinear_algebra):
        assert validate(nonlinear_algebra) == []
        assert not nonlinear_algebra.is_linear()

    def test_chain3_is_clean(self, chain3):
        assert validate(chain3) == []

    def _axioms(self, algebra):
        return {v.axiom for v in validate(algebra)}

    def test_broken_reflexivity(self):
        a = FinitePomonoid(
            ("a", "b"), 1, ((False, True), (False, True)), ((0, 0), (0, 1))
        )
        assert "order-reflexive" in self._axioms(a)

    def test_broken_antisymmetry(self):
        a = FinitePomonoid(
            ("a", "b"), 1, ((True, True), (True, True)), ((0, 0), (0, 1))
        )
        assert "order-antisymmetric" in self._axioms(a)

    def test_broken_transitivity(self):
        leq = (
            (True, True, False),
            (False, True, True),
            (False, False, True),
        )
        a = FinitePomonoid(("a", "b", "c"), 2, leq, ((0, 0, 0), (0, 1, 1), (0, 1, 2)))
        axioms = self._axioms(a)
        assert "order-transitive" in axioms

    def test_broken_commutativity(self):
        a = FinitePomonoid(
            ("a", "b"), 1, ((True, True), (False, True)), ((0, 1), (0, 1))
        )
        assert "times-commutative" in self._axioms(a)

    def test_broken_associativity(self, chain3):
        times = ((2, 0, 0), (0, 0, 1), (0, 1, 2))  # 0*0 = 1 spoils it
        a = FinitePomonoid(chain3.element_names, 2, chain3.leq_table, times)
        assert "times-associative" in self._axioms(a)

    def test_broken_unit(self, chain3):
        times = ((0, 0, 0), (0, 0, 0), (0, 0, 2))  # unit row not identity
        a = FinitePomonoid(chain3.element_names, 2, chain3.leq_table, times)
        assert "unit-neutral" in self._axioms(a)

    def test_unit_not_greatest(self):
        leq = ((True, True), (False, True))  # x sits strictly above the unit
        a = FinitePomonoid(("u", "x"), 0, leq, ((0, 1), (1, 1)))
        assert "unit-greatest" in self._axioms(a)

    def test_broken_monotonicity(self, chain3):
        times = ((0, 1, 0), (1, 1, 1), (0, 1, 2))  # 0*0=0 but 0*m=m
        axioms = self._axioms(
            FinitePomonoid(chain3.element_names, 2, chain3.leq_table, times)
        )
        assert "times-monotone" in axioms

    # downset_completion(bool2) is the chain {} < {0} < {0,1} (indices 0 < 1 < 2)
    @pytest.mark.parametrize("case", [
        ("bottom", None, 1, Violation("bottom-least", (0,))),
        ("meet", (1, 2), 2, Violation("meet-lower-bound", (1, 2))),
        ("meet", (1, 2), 0, Violation("meet-greatest-lower", (1, 2, 1))),
        ("join", (1, 2), 1, Violation("join-upper-bound", (1, 2))),
        ("join", (0, 1), 2, Violation("join-least-upper", (0, 1, 1))),
    ], ids=lambda case: case[-1].axiom)
    def test_broken_lattice_law(self, bool2, case):
        part, cell, value, violation = case
        lattice, _ = downset_completion(bool2)
        parts = {
            "bottom": lattice.bottom,
            "meet": [list(r) for r in lattice.meet_table],
            "join": [list(r) for r in lattice.join_table],
        }
        if cell is None:
            parts[part] = value
        else:
            parts[part][cell[0]][cell[1]] = value
        broken = FiniteResiduatedLattice(
            lattice.element_names,
            lattice.unit,
            lattice.leq_table,
            lattice.times_table,
            parts["bottom"],
            parts["meet"],
            parts["join"],
            lattice.residuum_table,
        )
        assert validate(broken) == [violation]

    def test_broken_residuum(self, bool2):
        lattice, _ = downset_completion(bool2)
        table = [list(r) for r in lattice.residuum_table]
        table[2][0] = 2  # residuum(top, bottom) must be bottom
        broken = FiniteResiduatedLattice(
            lattice.element_names,
            lattice.unit,
            lattice.leq_table,
            lattice.times_table,
            lattice.bottom,
            lattice.meet_table,
            lattice.join_table,
            table,
        )
        assert "residuum-adjoint" in self._axioms(broken)


# ============================================================
# Evaluation semantics
# ============================================================


class TestEvaluation:
    def test_elem_power(self, nonlinear_algebra):
        a = builtin_algebra("product")
        assert elem_power(a, 0.5, 3) == pytest.approx(0.125)
        assert elem_power(a, 0.5, 0) == 1.0
        with pytest.raises(ValueError):
            elem_power(a, 0.5, -1)
        nl = nonlinear_algebra
        b = nl.index_of("b")
        assert elem_power(nl, b, 2) == b
        assert elem_power(nl, nl.index_of("a"), 2) == nl.index_of("0")

    def test_evaluate_product(self):
        e = Evaluation(builtin_algebra("product"), {"q": 0.6, "r": 0.5})
        assert evaluate(e, parse_multiset("q q")) == pytest.approx(0.36)
        assert evaluate(e, parse_multiset("q r")) == pytest.approx(0.3)
        assert evaluate(e, parse_multiset("1")) == 1.0

    def test_evaluate_finite(self, nonlinear_algebra):
        nl = nonlinear_algebra
        e = Evaluation(nl, {"u": nl.index_of("b"), "y": nl.index_of("c")})
        assert evaluate(e, parse_multiset("u y")) == nl.index_of("0")

    def test_unassigned(self):
        e = Evaluation(builtin_algebra("product"), {"q": 0.6})
        with pytest.raises(UnassignedAttributeError):
            evaluate(e, parse_multiset("q z"))

    def test_satisfies(self):
        e = Evaluation(builtin_algebra("product"), {"p": 0.5, "q": 0.6})
        assert satisfies(e, parse_mfd("p -> q"))
        assert not satisfies(e, parse_mfd("p -> q q"))
        assert satisfies(e, parse_mfd("p p -> q q"))

    def test_all_unit_models_everything(self, pomonoids_upto_3):
        theory = parse_theory("a -> b b\n1 -> c\na b c -> a a")
        for algebra in pomonoids_upto_3:
            e = Evaluation(algebra, {v: algebra.unit for v in theory.variables})
            assert is_model(e, theory)

    def test_degree_name(self, bool2):
        assert Evaluation(bool2, {"p": 0}).degree_name("p") == "0"
        e = Evaluation(builtin_algebra("product"), {"p": 0.25})
        assert e.degree_name("p") == "0.2500"
        # one rule with `mfd check`: only a float gets 4 decimals
        e = Evaluation(builtin_algebra("product"), {"p": Fraction(1, 3), "q": 1})
        assert (e.degree_name("p"), e.degree_name("q")) == ("1/3", "1")


# ============================================================
# Exhaustive enumeration
# ============================================================


class TestEnumeration:
    def test_counts_against_raw_filter_oracle(self):
        # Independent reconstruction by filtering all order relations and
        # all integral tables; exact comparison of isomorphism classes.
        for n in (1, 2, 3, 4):
            expected = oracles.brute_force_pomonoid_forms(n)
            got = {
                a.canonical_form() for a in enumerate_pomonoids(n) if a.size == n
            }
            assert got == expected, f"size {n} classes differ"

    def test_known_sizes(self):
        by_size = {}
        for a in enumerate_pomonoids(5):
            by_size[a.size] = by_size.get(a.size, 0) + 1
        assert by_size == {1: 1, 2: 1, 3: 2, 4: 9, 5: 60}

    def test_linear_size5_against_chain_oracle(self):
        expected = oracles.brute_force_chain_forms(5)
        got = {
            a.canonical_form()
            for a in enumerate_pomonoids(5)
            if a.size == 5 and a.is_linear()
        }
        assert got == expected
        assert len(got) == 22

    def test_all_validate(self, pomonoids_upto_4):
        for a in pomonoids_upto_4:
            assert validate(a) == []

    def test_pairwise_non_isomorphic(self, pomonoids_upto_4):
        forms = [a.canonical_form() for a in pomonoids_upto_4]
        assert len(forms) == len(set(forms))

    def test_stream_up_to_size6_is_pinned(self):
        # refutations and tests depend on this exact order and labeling
        algebras = list(enumerate_pomonoids(6))
        counts = collections.Counter(a.size for a in algebras)
        assert counts == {1: 1, 2: 1, 3: 2, 4: 9, 5: 60, 6: 590}
        stream = repr([(a.unit, a.leq_table, a.times_table) for a in algebras])
        assert hashlib.sha256(stream.encode()).hexdigest() == (
            "069b14ba131f7377773a7382bb28f48acb22d267083f29e62db919aff9bf82a4"
        )

    def test_completion_up_to_size6_is_pinned(self, nonlinear_algebra):
        # element order, names and embedding of every completion are part
        # of the output of mfd complete-algebra
        digest = hashlib.sha256()
        for p in (*enumerate_pomonoids(6), nonlinear_algebra):
            lattice, embedding = downset_completion(p)
            digest.update(json.dumps([algebra_to_json(lattice), embedding]).encode())
        assert digest.hexdigest() == (
            "e1e0de8548a7bec5608085411e277706a5e10b76d4c7e750755da3b5451de629"
        )

    def test_canonical_orders_list_lower_elements_later(self):
        # the times-table search relies on this: when it fills a cell, the
        # cells of elements below either factor are still empty
        for n in range(1, ENUMERATION_SIZE_CAP + 1):
            for leq in _posets_with_top(n):
                assert all(b > i for b in range(n) for i in range(n) if b != i and leq[b][i])

    def test_posets_with_top_match_brute_force(self):
        # the brute-force definition: adjoin a top, canonicalize, dedup, sort
        def reference(n):
            m = n - 1
            seen = {
                _canonical_order(
                    [row + (True,) for row in base] + [(False,) * m + (True,)]
                )[0]
                for base in _poset_classes(m)
            }
            return sorted(_matrix(flat, n) for flat in seen)

        for n in range(1, ENUMERATION_SIZE_CAP + 1):
            assert _posets_with_top(n) == reference(n), f"size {n} differs"

    def test_unit_is_element_0(self):
        assert all(a.unit == 0 for a in enumerate_pomonoids(ENUMERATION_SIZE_CAP))

    def test_deterministic(self):
        first = [(a.element_names, a.unit, a.leq_table, a.times_table)
                 for a in enumerate_pomonoids(3)]
        second = [(a.element_names, a.unit, a.leq_table, a.times_table)
                  for a in enumerate_pomonoids(3)]
        assert first == second

    def test_memo_matches_fresh_generation(self):
        # the per-size memo replays exactly what an uncached run generates
        fresh = _pomonoids_of_size.__wrapped__
        tables = lambda algebras: [
            (a.element_names, a.unit, a.leq_table, a.times_table) for a in algebras
        ]
        streamed = list(enumerate_pomonoids(5))
        expected = []
        counts = {}
        for n in range(1, 6):
            generated = fresh(n)
            counts[n] = len(generated)
            expected.extend(generated)
        assert counts == {1: 1, 2: 1, 3: 2, 4: 9, 5: 60}
        assert tables(streamed) == tables(expected)

    def test_algebras_are_shared_across_calls(self):
        first = list(enumerate_pomonoids(4))
        second = list(enumerate_pomonoids(4))
        assert all(a is b for a, b in zip(first, second))

    def test_sorted_by_size(self, pomonoids_upto_4):
        sizes = [a.size for a in pomonoids_upto_4]
        assert sizes == sorted(sizes)

    def test_contains_the_nonlinear_example(self, nonlinear_algebra):
        target = nonlinear_algebra.canonical_form()
        assert any(a.canonical_form() == target for a in enumerate_pomonoids(5))

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_pomonoids(0))
        with pytest.raises(ValueError):
            list(enumerate_pomonoids(ENUMERATION_SIZE_CAP + 1))

    def test_size_checked_when_called(self):
        with pytest.raises(ValueError, match=rf"^max_size must be in 1\.\.{ENUMERATION_SIZE_CAP}, got 0$"):
            enumerate_pomonoids(0)
        with pytest.raises(TypeError, match="^max_size must be an int, not float$"):
            enumerate_pomonoids(2.0)
        stream = enumerate_pomonoids(np.int64(3))
        assert isinstance(stream, types.GeneratorType)  # callers may close() it
        assert list(stream) == list(enumerate_pomonoids(3))

    def test_trivial_algebra_first(self):
        only = list(enumerate_pomonoids(1))
        assert len(only) == 1
        assert only[0].size == 1
        assert validate(only[0]) == []


class TestCanonicalForm:
    def test_relabeling_invariant(self, nonlinear_algebra):
        nl = nonlinear_algebra
        twin = relabeled(nl, (4, 2, 0, 3, 1))  # arbitrary relabeling
        assert validate(twin) == []
        assert twin.canonical_form() == nl.canonical_form()

    def test_matches_brute_force_reference(self):
        for a in enumerate_pomonoids(5):
            assert a.canonical_form() == oracles.canonical_form(a)

    def test_relabeled_copies_match_reference(self):
        rng = random.Random(5)
        for a in enumerate_pomonoids(5):
            for _ in range(2):
                perm = list(range(a.size))
                rng.shuffle(perm)
                twin = relabeled(a, perm)
                assert validate(twin) == []
                assert twin.canonical_form() == oracles.canonical_form(twin)
                assert twin.canonical_form() == a.canonical_form()

    def test_distinguishes_size3_pair(self):
        pair = [a for a in enumerate_pomonoids(3) if a.size == 3]
        assert len(pair) == 2
        assert pair[0].canonical_form() != pair[1].canonical_form()


# ============================================================
# Downset completion
# ============================================================


class TestDownsetCompletion:
    def test_downsets_match_brute_force(self):
        for n in range(6):
            for leq in _poset_classes(n):
                transposed = [[leq[b][a] for b in range(n)] for a in range(n)]
                for order in (leq, transposed):
                    expected = oracles.downsets(order)
                    got = _downsets(order, cap=len(expected))
                    assert [{x for x in range(n) if d >> x & 1} for d in got] == expected
                    with pytest.raises(InvalidAlgebraError):
                        _downsets(order, cap=len(expected) - 1)

    def test_long_chain_completes_quickly(self):
        start = time.process_time()
        lattice, embedding = downset_completion(goedel_chain(64))
        assert time.process_time() - start < 1.0
        assert lattice.size == 65
        assert embedding == tuple(range(1, 65))
        assert validate(downset_completion(goedel_chain(16))[0]) == []

    def test_wide_antichain_stops_at_the_cap(self, wide_flat_algebra):
        assert validate(wide_flat_algebra) == []
        start = time.process_time()
        with pytest.raises(InvalidAlgebraError) as info:
            downset_completion(wide_flat_algebra)
        assert time.process_time() - start < 1.0
        reached = int(re.search(r"(\d+) downsets", str(info.value)).group(1))
        assert reached > _COMPLETION_CAP

    def test_sizes(self, bool2, nonlinear_algebra):
        trivial = next(iter(enumerate_pomonoids(1)))
        assert downset_completion(trivial)[0].size == 2
        assert downset_completion(bool2)[0].size == 3
        assert downset_completion(nonlinear_algebra)[0].size == 7

    def test_completion_validates(self, pomonoids_upto_3, nonlinear_algebra):
        for p in tuple(pomonoids_upto_3) + (nonlinear_algebra,):
            lattice, _ = downset_completion(p)
            assert isinstance(lattice, FiniteResiduatedLattice)
            assert validate(lattice) == []

    def test_embedding_laws(self, pomonoids_upto_3, nonlinear_algebra):
        for p in tuple(pomonoids_upto_3) + (nonlinear_algebra,):
            lattice, emb = downset_completion(p)
            assert len(set(emb)) == p.size  # injective
            assert emb[p.unit] == lattice.unit
            for a in p.elements():
                for b in p.elements():
                    assert emb[p.times(a, b)] == lattice.times(emb[a], emb[b])
                    assert p.leq_holds(a, b) == lattice.leq_holds(emb[a], emb[b])

    def test_bottom_is_fresh(self, bool2):
        lattice, emb = downset_completion(bool2)
        assert lattice.bottom not in emb
        assert all(lattice.leq_holds(lattice.bottom, x) for x in lattice.elements())

    def test_lattice_operations(self, nonlinear_algebra):
        lattice, _ = downset_completion(nonlinear_algebra)
        for a in lattice.elements():
            for b in lattice.elements():
                m, j = lattice.meet(a, b), lattice.join(a, b)
                assert lattice.leq_holds(m, a) and lattice.leq_holds(m, b)
                assert lattice.leq_holds(a, j) and lattice.leq_holds(b, j)
                r = lattice.residuum(a, b)
                assert lattice.leq_holds(lattice.times(r, a), b)

    def test_tables_given_as_row_generators(self, bool2):
        lattice, _ = downset_completion(bool2)
        tables = (lattice.meet_table, lattice.join_table, lattice.residuum_table)
        head = (lattice.element_names, lattice.unit, lattice.leq_table, lattice.times_table)
        from_lists = FiniteResiduatedLattice(
            *head, lattice.bottom, *([list(r) for r in t] for t in tables)
        )
        from_generators = FiniteResiduatedLattice(
            *head, lattice.bottom, *((list(r) for r in t) for t in tables)
        )
        for got in (from_lists, from_generators):
            assert got == lattice
            assert (got.meet_table, got.join_table, got.residuum_table) == tables
            assert validate(got) == []


# ============================================================
# Serialization
# ============================================================


class TestJson:
    def test_round_trip_pomonoid(self, nonlinear_algebra):
        doc = algebra_to_json(nonlinear_algebra)
        back = algebra_from_json(doc)
        assert back == nonlinear_algebra
        assert type(back) is FinitePomonoid

    def test_round_trip_lattice(self, bool2):
        lattice, _ = downset_completion(bool2)
        back = algebra_from_json(algebra_to_json(lattice))
        assert isinstance(back, FiniteResiduatedLattice)
        assert back == lattice
        assert back.residuum_table == lattice.residuum_table

    def test_json_is_serializable(self, nonlinear_algebra):
        json.dumps(algebra_to_json(nonlinear_algebra))

    def test_rejects_axiom_violations(self, bool2):
        doc = algebra_to_json(bool2)
        doc["times"][1][1] = "0"  # unit no longer neutral
        with pytest.raises(InvalidAlgebraError):
            algebra_from_json(doc)

    def test_rejects_malformed(self):
        with pytest.raises(InvalidAlgebraError):
            algebra_from_json({"elements": ["a"], "leq": [[True]]})
        with pytest.raises(InvalidAlgebraError):
            algebra_from_json(
                {"elements": ["a", "a"], "unit": "a", "leq": [], "times": []}
            )

    def test_load_by_name_and_path(self, data_dir):
        assert isinstance(load_algebra("product"), UnitIntervalPomonoid)
        assert isinstance(load_algebra("bool2"), FinitePomonoid)
        loaded = load_algebra(str(data_dir / "nonlinear_pomonoid.json"))
        assert loaded.size == 5
        with pytest.raises(FileNotFoundError):
            load_algebra("no_such_algebra")

    def test_builtin_names(self):
        assert set(BUILTIN_ALGEBRA_NAMES) == {"product", "min", "lukasiewicz", "bool2"}
        for name in BUILTIN_ALGEBRA_NAMES:
            builtin_algebra(name)
        with pytest.raises(ValueError):
            builtin_algebra("boolean")
