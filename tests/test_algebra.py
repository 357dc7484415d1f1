"""Degree algebras: axioms, evaluation, enumeration, and completion."""

import collections
import copy
import hashlib
import itertools
import json
import math
import pickle
import random

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
from mfdlogic.algebra import _pomonoids_of_size, _posets_with_top


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

    def test_copies_and_pickles_round_trip(self, nonlinear_algebra):
        lattice, _ = downset_completion(nonlinear_algebra)
        for algebra in (nonlinear_algebra, lattice):
            algebra.np_tables()
            for twin in (
                copy.copy(algebra),
                copy.deepcopy(algebra),
                pickle.loads(pickle.dumps(algebra)),
            ):
                assert twin == algebra and twin is not algebra
                assert twin.np_tables()[0].tolist() == [list(r) for r in algebra.times_table]
        assert copy.deepcopy(lattice).bottom == lattice.bottom

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

    def test_canonical_orders_list_lower_elements_later(self):
        # the times-table search relies on this: when it fills a cell, the
        # cells of elements below either factor are still empty
        for n in range(1, ENUMERATION_SIZE_CAP + 1):
            for leq in _posets_with_top(n):
                assert all(b > i for b in range(n) for i in range(n) if b != i and leq[b][i])

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
