"""Multiset arithmetic, structural predicates, and the theory text format."""

import copy
import dataclasses
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfdlogic import (
    MULTIPLICITY_CAP,
    TOP,
    AttributeMultiset,
    Mfd,
    MultiplicityOverflowError,
    Theory,
    TheoryParseError,
    booleanize,
    divides,
    format_mfd,
    format_multiset,
    format_theory,
    is_non_contracting,
    is_non_contracting_theory,
    is_trivial,
    parse_mfd,
    parse_multiset,
    parse_theory,
    singleton,
)
from mfdlogic import formula

names = st.sampled_from(("p", "q", "r", "s"))
multisets = st.dictionaries(names, st.integers(1, 3), max_size=4).map(AttributeMultiset)
mfds = st.builds(Mfd, multisets, multisets)
theories = st.lists(mfds, max_size=4).map(Theory)


# ============================================================
# Multiset construction and basic queries
# ============================================================


class TestMultisetBasics:
    def test_empty_is_top(self):
        assert AttributeMultiset().is_top
        assert AttributeMultiset({}) == TOP
        assert not TOP
        assert len(TOP) == 0
        assert TOP.total == 0

    def test_zero_counts_are_dropped(self):
        assert AttributeMultiset({"p": 0}) == TOP
        assert AttributeMultiset({"p": 0, "q": 2}) == AttributeMultiset({"q": 2})
        assert singleton("p", 0) == TOP

    def test_pair_iterable_accumulates(self):
        m = AttributeMultiset([("p", 1), ("q", 2), ("p", 2)])
        assert m["p"] == 3
        assert m["q"] == 2

    def test_queries(self):
        m = AttributeMultiset({"b": 2, "a": 1})
        assert m["a"] == 1
        assert m["missing"] == 0
        assert "a" in m and "z" not in m
        assert list(m) == ["a", "b"]
        assert len(m) == 2
        assert m.total == 3
        assert m.support == ("a", "b")
        assert m.items() == (("a", 1), ("b", 2))
        assert bool(m)

    def test_equality_ignores_construction_order(self):
        a = AttributeMultiset({"p": 1, "q": 2})
        b = AttributeMultiset([("q", 2), ("p", 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != AttributeMultiset({"p": 1, "q": 1})
        assert a != "p q q"

    def test_bad_constructions(self):
        with pytest.raises(ValueError):
            AttributeMultiset({"": 1})
        with pytest.raises(ValueError):
            AttributeMultiset({3: 1})
        with pytest.raises(ValueError):
            AttributeMultiset({"p": -1})
        with pytest.raises(ValueError):
            AttributeMultiset({"p": True})
        with pytest.raises(ValueError):
            AttributeMultiset({"p": 1.5})

    def test_repr_and_str(self):
        m = AttributeMultiset({"p": 2})
        assert "p" in repr(m)
        assert str(m) == "p p"
        assert str(TOP) == "1"


# ============================================================
# Union, power, and division laws
# ============================================================


class TestMultisetAlgebra:
    @given(multisets, multisets)
    def test_union_commutes(self, a, b):
        assert a.union(b) == b.union(a)

    @given(multisets, multisets, multisets)
    def test_union_associates(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(multisets)
    def test_top_is_unit(self, a):
        assert a.union(TOP) == a
        assert TOP.union(a) == a

    @given(multisets, multisets)
    def test_union_adds_totals(self, a, b):
        assert a.union(b).total == a.total + b.total

    @given(multisets)
    def test_power_laws(self, a):
        assert a.power(0) == TOP
        assert a.power(1) == a
        assert a.power(2) == a.union(a)
        assert a.power(3).total == 3 * a.total

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            singleton("p").power(-1)

    @given(multisets, multisets)
    def test_divides_inverts_union(self, e, x):
        assert divides(e, e.union(x)) == x

    @given(multisets, multisets)
    def test_divides_iff_contained(self, e, w):
        result = divides(e, w)
        if w.contains_multiset(e):
            assert result is not None
            assert e.union(result) == w
        else:
            assert result is None

    @given(multisets)
    def test_contains_is_reflexive(self, a):
        assert a.contains_multiset(a)
        assert a.contains_multiset(TOP)

    @given(multisets, multisets)
    def test_contains_antisymmetric(self, a, b):
        if a.contains_multiset(b) and b.contains_multiset(a):
            assert a == b

    def test_divides_golden(self):
        w = parse_multiset("p p q")
        assert divides(parse_multiset("p"), w) == parse_multiset("p q")
        assert divides(parse_multiset("p p q"), w) == TOP
        assert divides(parse_multiset("q q"), w) is None
        assert divides(TOP, w) == w


class TestMultiplicityCap:
    def test_cap_value(self):
        assert MULTIPLICITY_CAP == 2**31 - 1

    def test_constructor_accumulation_overflows(self):
        AttributeMultiset({"p": MULTIPLICITY_CAP})  # at the cap is fine
        with pytest.raises(MultiplicityOverflowError):
            AttributeMultiset([("p", MULTIPLICITY_CAP), ("p", 1)])

    def test_union_overflows(self):
        big = AttributeMultiset({"p": MULTIPLICITY_CAP})
        with pytest.raises(MultiplicityOverflowError):
            big.union(singleton("p"))

    def test_power_overflows(self):
        big = AttributeMultiset({"p": MULTIPLICITY_CAP})
        with pytest.raises(MultiplicityOverflowError):
            big.power(2)

    def test_reassigned_cap_applies_to_seen_sides(self, monkeypatch):
        parse_multiset("p p")
        monkeypatch.setattr(formula, "MULTIPLICITY_CAP", 1)
        with pytest.raises(MultiplicityOverflowError):
            parse_multiset("p p")


# ============================================================
# Dependencies, theories, predicates
# ============================================================


class TestTheory:
    def test_dedup_keeps_first_occurrence_order(self):
        f1 = parse_mfd("a -> b")
        f2 = parse_mfd("b -> c")
        t = Theory((f1, f2, f1, f2, f1))
        assert t.formulas == (f1, f2, f1, f2, f1)
        assert t.distinct_formulas() == (f1, f2)
        assert len(t) == 5
        assert list(t) == [f1, f2, f1, f2, f1]

    def test_variables(self):
        t = parse_theory("a b -> c\nd -> a")
        assert t.variables == frozenset("abcd")
        assert parse_mfd("a a -> b").variables == frozenset("ab")


class TestSlottedValues:
    """``Mfd`` and ``Theory`` are frozen slotted dataclasses: no per-instance
    dict, yet copies, pickles, equality and hashing behave as before."""

    @given(theories, mfds)
    def test_copies_and_pickles_round_trip(self, theory, query):
        for value in (theory, query):
            for twin in (copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
                assert type(twin) is type(value)
                assert twin == value
                assert hash(twin) == hash(value)
        twin = pickle.loads(pickle.dumps(theory))
        assert twin.formulas == theory.formulas
        assert twin.distinct_formulas() == theory.distinct_formulas()

    def test_frozen_without_instance_dict(self):
        theory, query = parse_theory("a b -> c\na -> a"), parse_mfd("a -> c")
        for value, name in ((theory, "formulas"), (query, "antecedent")):
            assert not hasattr(value, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))
            # a name outside the fields is refused alike on every Python
            with pytest.raises(AttributeError):
                value.extra = 1
            assert not hasattr(value, "extra")

    def test_memory_of_parsed_theories(self):
        rng = random.Random(5)

        def side():
            names = rng.sample("abcde", rng.randint(1, 3))
            return " ".join(n for n in names for _ in range(rng.randint(1, 2)))

        texts = ["\n".join(f"{side()} -> {side()}" for _ in range(rng.randint(1, 6)))
                 for _ in range(500)]
        queries = [f"{side()} -> {side()}" for _ in range(500)]
        # parse once first, so the shared sides are already cached
        [(parse_theory(t), parse_mfd(q)) for t, q in zip(texts, queries)]
        tracemalloc.start()
        try:
            kept = [(parse_theory(t), parse_mfd(q)) for t, q in zip(texts, queries)]
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(kept) == 500
        # about 190 KB slotted; an instance dict per Mfd and Theory held 326 KB
        assert retained < 256 * 1024, retained


class TestPredicates:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p q -> q", True),
            ("p -> p", True),
            ("p -> 1", True),
            ("p p -> p", True),
            ("1 -> p", False),
            ("p -> p p", False),
            ("p -> q", False),
        ],
    )
    def test_trivial_golden(self, text, expected):
        assert is_trivial(parse_mfd(text)) is expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p -> p q", True),
            ("p -> p", True),
            ("1 -> p", True),
            ("1 -> 1", True),
            ("p q -> p", False),
            ("p -> q", False),
            ("p p -> p q", False),
        ],
    )
    def test_non_contracting_golden(self, text, expected):
        assert is_non_contracting(parse_mfd(text)) is expected

    @given(multisets, multisets)
    def test_predicates_agree_with_division(self, a, b):
        f = Mfd(a, b)
        assert is_trivial(f) == (divides(b, a) is not None)
        assert is_non_contracting(f) == (divides(a, b) is not None)

    def test_theory_level(self):
        assert is_non_contracting_theory(parse_theory("a -> a b\nb -> b"))
        assert not is_non_contracting_theory(parse_theory("a -> a b\nb -> c"))
        assert is_non_contracting_theory(Theory(()))


class TestBooleanize:
    def test_golden(self):
        t = parse_theory("a -> a b")
        result = booleanize(t, ["c"])
        assert [format_mfd(f) for f in result] == [
            "a -> a b",
            "a -> a a",
            "b -> b b",
            "c -> c c",
        ]

    def test_without_extras(self):
        t = parse_theory("a -> b")
        assert [format_mfd(f) for f in booleanize(t)] == [
            "a -> b",
            "a -> a a",
            "b -> b b",
        ]

    def test_empty(self):
        assert booleanize(Theory(())).formulas == ()

    @given(theories)
    def test_extension_only_appends(self, t):
        result = booleanize(t)
        assert result.formulas[: len(t)] == t.formulas
        for f in result.formulas[len(t) :]:
            p = f.antecedent
            assert f.consequent == p.union(p)


# ============================================================
# Parsing and formatting
# ============================================================


class TestParsing:
    def test_basic(self):
        f = parse_mfd("loc area area -> price")
        assert f.antecedent == AttributeMultiset({"loc": 1, "area": 2})
        assert f.consequent == singleton("price")

    def test_unit_sides(self):
        assert parse_mfd("1 -> p").antecedent == TOP
        assert parse_mfd("top -> p").antecedent == TOP
        assert parse_mfd("p -> 1").consequent == TOP

    def test_tight_arrow(self):
        f = parse_mfd("p p->q")
        assert f.antecedent == singleton("p", 2)
        assert f.consequent == singleton("q")

    def test_comments_and_blanks(self):
        t = parse_theory("# header\n\na -> b  # trailing\n   \nb -> c\n")
        assert [format_mfd(f) for f in t] == ["a -> b", "b -> c"]
        assert parse_theory("# only a comment\n").formulas == ()

    def test_parse_multiset(self):
        assert parse_multiset("1") == TOP
        assert parse_multiset("a a b") == AttributeMultiset({"a": 2, "b": 1})

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("p q r", 1, 6),  # no arrow
            ("a -> b\nc = d", 2, 6),  # no arrow on the second line
            ("a -> b -> c", 1, 8),  # two arrows
            ("-> q", 1, 1),  # empty antecedent
            ("p ->", 1, 5),  # empty consequent
            ("p -> 1 q", 1, 6),  # unit mixed with attributes
            ("_a -> b", 1, 1),  # reserved leading underscore
            ("p -> 9x", 1, 6),  # identifier cannot start with a digit
        ],
    )
    def test_errors_carry_position(self, text, line, column):
        with pytest.raises(TheoryParseError) as exc:
            parse_theory(text)
        assert exc.value.line == line
        assert exc.value.column == column
        assert f"line {line}, column {column}" in str(exc.value)

    def test_equal_sides_are_shared(self):
        t = parse_theory("b a a -> c\nc -> a b a")
        assert t.formulas[0].antecedent is t.formulas[1].consequent
        assert parse_multiset("a   b a") is t.formulas[0].antecedent
        assert parse_mfd("q -> c").consequent is t.formulas[1].antecedent

    def test_seen_side_with_bad_token_reports_its_position(self):
        parse_theory("a b -> c")
        with pytest.raises(TheoryParseError) as exc:
            parse_theory("x -> y\nc -> a b 9b")
        assert (exc.value.line, exc.value.column) == (2, 10)
        with pytest.raises(TheoryParseError) as exc:
            parse_theory("a _b -> c")
        assert (exc.value.line, exc.value.column) == (1, 3)

    def test_parse_mfd_rejects_blank(self):
        with pytest.raises(TheoryParseError):
            parse_mfd("   # nothing here")


class TestFormatting:
    def test_golden(self):
        assert format_multiset(parse_multiset("b a a")) == "a a b"
        assert format_multiset(TOP) == "1"
        assert format_mfd(parse_mfd("q p->r")) == "p q -> r"
        assert format_theory(Theory(())) == ""
        assert format_theory(parse_theory("a -> b")) == "a -> b\n"

    def test_str_is_the_formatted_text(self):
        assert str(parse_mfd("q p->r r")) == "p q -> r r"
        assert str(parse_theory("b -> a\n1 -> c c")) == "b -> a\n1 -> c c\n"
        assert str(Theory(())) == ""

    @given(st.dictionaries(st.sampled_from(("p", "q", "r", "attr_1")), st.integers(1, 2000),
                           max_size=4).map(AttributeMultiset))
    def test_long_runs_equal_the_token_join(self, m):
        # runs are built by string repetition; the text is the one token
        # per occurrence join, and "1" for the empty multiset
        tokens = " ".join(a for a, c in m.items() for _ in range(c))
        assert format_multiset(m) == (tokens or "1")

    @given(multisets)
    def test_multiset_round_trip(self, m):
        assert parse_multiset(format_multiset(m)) == m

    @given(theories)
    def test_theory_round_trip(self, t):
        assert parse_theory(format_theory(t)) == t
