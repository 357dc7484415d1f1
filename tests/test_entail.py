"""Proof search, countermodel search, and the combined decision procedure."""

import hashlib
import json
import random
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

import oracles
from mfdlogic import (
    AttributeMultiset,
    BudgetReport,
    Budgets,
    Mfd,
    ProofError,
    Proved,
    Refuted,
    RewritePath,
    RewriteStep,
    Theory,
    Unknown,
    bfs_prove,
    certificate_from_path,
    check_invariant,
    check_proof,
    classical_entails,
    decide,
    deduction_witness,
    enumerate_pomonoids,
    find_countermodel,
    format_mfd,
    format_multiset,
    format_proof,
    is_model,
    is_non_contracting_theory,
    member,
    parse_mfd,
    parse_multiset,
    parse_proof,
    parse_theory,
    rewrite_successors,
    satisfies,
)
from mfdlogic import entail, formula
from mfdlogic.cli import verdict_from_json, verdict_to_json
from mfdlogic.formula import MultiplicityOverflowError
from mfdlogic.member import member_trace

M = parse_multiset
F = parse_mfd


def rand_multiset(rng, names, most=3):
    pool = [v for v in names for _ in range(2)]
    return AttributeMultiset(Counter(rng.sample(pool, rng.randint(0, most))))


# ============================================================
# One-step rewriting
# ============================================================


class TestRewriteSuccessors:
    def test_empty_antecedent_rule_always_fires(self):
        steps = rewrite_successors(M("a"), parse_theory("1 -> b"))
        assert steps == [RewriteStep(F("1 -> b"), M("a"), M("a b"))]

    def test_multiplicity_matching(self):
        steps = rewrite_successors(M("p p p"), parse_theory("p p -> q"))
        assert [s.result for s in steps] == [M("p q")]
        assert rewrite_successors(M("p"), parse_theory("p p -> q")) == []

    def test_theory_order_and_duplicates(self):
        theory = parse_theory("a -> x\nb -> y\na -> x")
        steps = rewrite_successors(M("a b"), theory)
        assert [s.rule for s in steps] == [F("a -> x"), F("b -> y")]
        assert [s.result for s in steps] == [M("b x"), M("a y")]

    def test_remainder_times_rule(self):
        (step,) = rewrite_successors(M("a a c"), parse_theory("a c -> d d"))
        assert step.remainder == M("a")
        assert step.result == M("a d d")


# ============================================================
# Breadth-first proving
# ============================================================


class TestBfsProve:
    def test_four_step_proof(self, needs_nonlinear):
        verdict = bfs_prove(needs_nonlinear, F("p p -> q q"))
        assert isinstance(verdict, Proved)
        assert len(verdict.path) == 4
        assert verdict.path.start == M("p p")
        assert check_proof(verdict.certificate, needs_nonlinear) == F("p p -> q q")
        text = format_proof(verdict.certificate)
        assert parse_proof(text) == verdict.certificate

    def test_zero_step_proof(self):
        verdict = bfs_prove(Theory(()), F("a a b -> a b"))
        assert isinstance(verdict, Proved)
        assert len(verdict.path) == 0
        assert verdict.path.end == M("a a b")
        assert check_proof(verdict.certificate, Theory(())) == F("a a b -> a b")

    def test_path_replays_mechanically(self, no_additivity):
        verdict = bfs_prove(no_additivity, F("p p -> q r"))
        assert isinstance(verdict, Proved)
        w = verdict.path.start
        for step in verdict.path.steps:
            options = rewrite_successors(w, no_additivity)
            assert step in options
            w = step.result
        assert Counter(dict(F("p p -> q r").consequent.items())) <= Counter(
            dict(w.items())
        )

    def test_exhausted_graph(self):
        verdict = bfs_prove(parse_theory("p -> q"), F("p -> r"))
        assert isinstance(verdict, Unknown)
        assert verdict.report == BudgetReport(bfs_nodes_used=2, bfs_exhausted=True)

    def test_budget_cutoff(self):
        verdict = bfs_prove(parse_theory("p -> p p"), F("p -> q"), budget=10)
        assert isinstance(verdict, Unknown)
        assert verdict.report.bfs_nodes_used == 10
        assert verdict.report.bfs_exhausted is False

    def test_additivity_gap(self, no_additivity):
        # classically fine, monoidally unprovable: the graph is tiny
        verdict = bfs_prove(no_additivity, F("p -> q r"), budget=10_000)
        assert isinstance(verdict, Unknown)
        assert verdict.report.bfs_exhausted is True
        assert verdict.report.bfs_nodes_used == 3
        rules = oracles.theory_to_counter_rules(no_additivity)
        reach = oracles.reachable_counters(rules, Counter({"p": 1}))
        assert reach == {(("p", 1),), (("q", 1),), (("r", 1),)}
        assert not oracles.counter_provable(no_additivity, F("p -> q r"))

    def test_agreement_with_member(self):
        rng = random.Random(5)
        names = ("a", "b", "c")
        proved = unproved = 0
        for _ in range(30):
            formulas = []
            for _ in range(rng.randint(1, 3)):
                ant = rand_multiset(rng, names, most=2)
                formulas.append(Mfd(ant, ant.union(rand_multiset(rng, names, most=2))))
            theory = Theory(tuple(formulas))
            query = Mfd(rand_multiset(rng, names), rand_multiset(rng, names, most=2))
            expected = member(theory, query)
            verdict = bfs_prove(theory, query, budget=100_000)
            assert isinstance(verdict, Proved) == expected
            if expected:
                check_proof(verdict.certificate, theory)
                proved += 1
            else:
                unproved += 1
        assert proved >= 5 and unproved >= 5

    @pytest.mark.parametrize("run", [
        lambda budget: bfs_prove(parse_theory("p -> q"), F("p -> r"), budget),
        lambda budget: decide(parse_theory("p -> q"), F("p -> r"), Budgets(budget, 0, 2)),
    ], ids=["bfs_prove", "decide"])
    def test_budget_must_be_an_int(self, run):
        with pytest.raises(TypeError, match="bfs_nodes must be an int, not float"):
            run(1e5)
        assert run(0).report.bfs_nodes_used == 0
        report = run(10**18).report
        assert (report.bfs_nodes_used, report.bfs_exhausted) == (2, True)
        assert run(np.int64(1)).report.bfs_nodes_used == 1

    def test_memory_of_a_long_search(self):
        # a decide-mix theory whose graph grows on every layer without
        # ever covering the goal: 20k states of five counts each
        theory = parse_theory("e -> a a c c d d\nb b e e -> b e\nd d -> d d e e\n"
                              "b c e -> d d\nb b c -> c c d d\n")
        tracemalloc.start()
        try:
            verdict = bfs_prove(theory, F("b b c c d -> b b c c e"), 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # count tuples as states peaked near 2.6 MB, packed ints near 1.4 MB
        assert verdict.report == BudgetReport(bfs_nodes_used=20_000)
        assert peak < 2_000_000, peak


def _engine_events(theory, query, budget):
    """``_bfs_engine``'s events, with a proof spelled out as
    ``oracles.bfs_events`` spells it."""

    def counts(m):
        return Counter(dict(m.items()))

    events = []
    for event in entail._bfs_engine(theory, query, budget):
        if event[0] == "proved":
            path = event[1]
            event = ("proved", counts(path.start), [
                (s.rule, counts(s.remainder), counts(s.result)) for s in path.steps])
        events.append(event)
    return events


class TestBfsEventStream:
    """The BFS against a Counter oracle: every event, node count and path
    step, on budgets that cut layers anywhere and on budgets so large that
    they set how wide the packed states are."""

    NAMES = ("a", "b", "c", "d")

    @staticmethod
    def side(rng, names, most):
        chosen = rng.sample(names, rng.randint(0, min(most, len(names))))
        return AttributeMultiset(Counter({v: rng.randint(1, 3) for v in chosen}))

    def walk(self, rng, theory, start, steps):
        w = start
        for _ in range(steps):
            options = rewrite_successors(w, theory)
            if options:
                w = rng.choice(options).result
        return w

    def test_growing_theories(self):
        rng = random.Random(61)
        kinds = Counter()
        cases = 0
        while cases < 40:
            names = self.NAMES[: rng.randint(1, 4)]
            theory = Theory(tuple(
                Mfd(self.side(rng, names, 2), self.side(rng, names, 3))
                for _ in range(rng.randint(1, 5))))
            gains = [Counter(dict(f.consequent.items())) - Counter(dict(f.antecedent.items()))
                     for f in theory.distinct_formulas()]
            if is_non_contracting_theory(theory) or not any(gains):
                continue
            cases += 1
            start = self.side(rng, names, 2)
            for goal in (self.side(rng, names, 3), self.walk(rng, theory, start, 4)):
                query = Mfd(start, goal)
                for budget in range(41):
                    events = _engine_events(theory, query, budget)
                    assert events == oracles.bfs_events(theory, query, budget), (query, budget)
                    kinds[events[-1][0]] += 1
            query = Mfd(start, self.walk(rng, theory, start, 3))
            events = _engine_events(theory, query, 10**5)
            assert events == oracles.bfs_events(theory, query, 10**5)
            assert events[-1][0] == "proved"
        assert min(kinds[k] for k in ("proved", "budget", "exhausted")) >= 20, kinds

    def test_finite_graphs_with_huge_budgets(self):
        # every rule trades its largest attribute for smaller ones, so the
        # graph is finite however much a rule adds
        rng = random.Random(62)
        for _ in range(30):
            names = self.NAMES[: rng.randint(2, 4)]
            formulas = []
            for _ in range(rng.randint(1, 4)):
                top = rng.randrange(1, len(names))
                ant = self.side(rng, names[:top], 1).union(M(names[top]))
                formulas.append(Mfd(ant, self.side(rng, names[:top], 2)))
            theory = Theory(tuple(formulas))
            start = self.side(rng, names, 3)
            # no rule makes the last attribute: one more of it is never reached
            unreached = AttributeMultiset({names[-1]: start[names[-1]] + 1})
            for goal in (self.side(rng, names, 3), unreached):
                query = Mfd(start, goal)
                for budget in (*range(41), 10**5, 10**18):
                    events = _engine_events(theory, query, budget)
                    assert events == oracles.bfs_events(theory, query, budget), (query, budget)
            assert events[-1][0] == "exhausted"

    @pytest.mark.parametrize("rules", [
        "p -> p p", "a -> a a b", "p -> p p\nz z z z z z z z z -> p"])
    def test_counts_at_the_width_edge(self, rules):
        # a line whose counts reach budget + 1, cut at budgets around powers
        # of two; the goal z, never reached, leaves the width to the counts
        # and the antecedents
        theory = parse_theory(rules)
        start = theory.formulas[0].antecedent
        for j in range(1, 7):
            for budget in (2**j - 2, 2**j - 1, 2**j):
                goals = [AttributeMultiset({name: budget + extra})
                         for name in sorted(theory.variables) for extra in (1, 2)]
                for goal in goals + [M("z")]:
                    query = Mfd(start, goal)
                    events = _engine_events(theory, query, budget)
                    assert events == oracles.bfs_events(theory, query, budget), query


class TestCertificateFromPath:
    def test_expands_and_checks(self, no_accumulation):
        query = F("p -> q s t")
        verdict = bfs_prove(no_accumulation, query)
        assert isinstance(verdict, Proved)
        assert len(verdict.path) == 2
        cert = certificate_from_path(query, verdict.path)
        assert check_proof(cert, no_accumulation) == query

    def test_rejects_path_missing_goal(self):
        path = RewritePath(M("p"), ())
        with pytest.raises(ProofError):
            certificate_from_path(F("p -> q"), path)


# ============================================================
# Countermodel search
# ============================================================


class TestFindCountermodel:
    def test_additivity_witness_structure(self, no_additivity):
        hit = find_countermodel(no_additivity, F("p -> q r"), max_size=3)
        assert hit is not None
        algebra, ev = hit
        assert algebra.size == 3
        assert algebra.is_linear()
        order = sorted(algebra.elements(), key=lambda a: sum(algebra.leq_table[a]))
        top, mid, bottom = order
        assert top == algebra.unit
        assert algebra.times(mid, mid) == bottom
        assert ev.assignment == {"p": mid, "q": mid, "r": mid}
        assert is_model(ev, no_additivity)
        assert not satisfies(ev, F("p -> q r"))

    def test_accumulation_witness(self, no_accumulation):
        query = F("p -> q r s t")
        hit = find_countermodel(no_accumulation, query, max_size=3)
        assert hit is not None
        algebra, ev = hit
        assert algebra.size == 3
        assert is_model(ev, no_accumulation)
        assert not satisfies(ev, query)

    def test_nonlinear_witness_required(self, needs_nonlinear, nonlinear_algebra):
        hit = find_countermodel(needs_nonlinear, F("p -> q"), max_size=5)
        assert hit is not None
        algebra, ev = hit
        assert algebra.size == 5
        assert not algebra.is_linear()
        assert algebra.canonical_form() == nonlinear_algebra.canonical_form()
        assert is_model(ev, needs_nonlinear)
        assert not satisfies(ev, F("p -> q"))

    def test_trivial_query_has_no_countermodel(self):
        assert find_countermodel(Theory(()), F("a a -> a"), max_size=3) is None

    def test_budget_too_small(self, no_additivity):
        assert find_countermodel(no_additivity, F("p -> q r"), budget=2) is None

    def test_deterministic(self, no_accumulation):
        query = F("p -> q r s t")
        first = find_countermodel(no_accumulation, query, max_size=3)
        second = find_countermodel(no_accumulation, query, max_size=3)
        assert first == second

    def test_agrees_with_exhaustive_oracle(self, no_additivity, pomonoids_upto_3):
        hit = oracles.find_refuting_evaluation(
            no_additivity, F("p -> q r"), pomonoids_upto_3
        )
        assert hit is not None


class TestWideTheories:
    """64 and more attributes: s ** (k - 1) no longer fits in an int64."""

    @staticmethod
    def wide_theory(width):
        names = [f"w{k:02d}" for k in range(width)]
        # the chain sorts last: a budget-truncated sweep varies only the
        # last variables
        ring, chain = names[:-6], names[-6:]
        rules = [f"{a} -> {b}" for a, b in zip(chain, chain[1:])]
        rules += [
            f"{ring[k]} {ring[(k + 1) % len(ring)]} -> {ring[(k + 2) % len(ring)]}"
            for k in range(len(ring))
        ]
        return chain, parse_theory("\n".join(rules))

    @pytest.mark.parametrize("width", [64, 80])
    def test_decide_proves(self, width):
        chain, theory = self.wide_theory(width)
        verdict = decide(theory, F(f"{chain[0]} -> {chain[-1]}"), Budgets(model_evals=10_000))
        assert isinstance(verdict, Proved)
        assert len(verdict.path) == 5

    @pytest.mark.parametrize("width", [64, 80])
    def test_decide_and_find_countermodel_refute(self, width):
        chain, theory = self.wide_theory(width)
        query = F(f"{chain[-1]} -> {chain[0]}")
        verdict = decide(theory, query, Budgets(model_evals=10_000))
        assert isinstance(verdict, Refuted) and verdict.method == "countermodel"
        assert len(verdict.evaluation.assignment) == width
        algebra, ev = find_countermodel(theory, query, budget=10_000)
        assert (algebra, ev) == (verdict.algebra, verdict.evaluation)
        assert is_model(ev, theory) and not satisfies(ev, query)


class TestTiledSweep:
    """The sweep covers its indices tile by tile and folds powers by
    squaring; neither may change what it finds or how much it counts."""

    TILES = (1, 2, 3, 7)

    @staticmethod
    def heavy_multiset(rng, names):
        # multiplicities up to 12, so squaring takes several steps
        return AttributeMultiset(Counter({
            v: rng.choice((1, 2, 3, rng.randint(4, 12)))
            for v in rng.sample(names, rng.randint(0, min(2, len(names))))
        }))

    def random_case(self, rng):
        names = ("a", "b", "c", "d")[: rng.randint(1, 4)]
        theory = Theory(tuple(
            Mfd(self.heavy_multiset(rng, names), self.heavy_multiset(rng, names))
            for _ in range(rng.randint(1, 3))
        ))
        query = Mfd(self.heavy_multiset(rng, names), self.heavy_multiset(rng, names))
        return theory, query

    def test_sweep_matches_default_tile_and_scalar_scan(self, monkeypatch):
        rng = random.Random(57)
        algebras = list(enumerate_pomonoids(4))
        for _ in range(150):
            theory, query = self.random_case(rng)
            variables = sorted(theory.variables | query.variables)
            algebra = rng.choice(algebras)
            # budgets that end inside a tile as well as past the end
            limit = rng.choice((1, 2, 5, 13, 50, rng.randint(1, 300), 10**6))
            args = (algebra, theory.distinct_formulas(), query, variables, limit)
            default = entail._sweep_algebra(*args)
            count = min(algebra.size ** len(variables), limit)
            scan = (tuple(e.assignment[name] for name in variables)
                    for i, e in enumerate(oracles.all_evaluations(algebra, variables))
                    if i < count and is_model(e, theory) and not satisfies(e, query))
            assert default == (next(scan, None), count)
            for tile in self.TILES:
                monkeypatch.setattr(entail, "_TILE_EVALS", tile)
                assert entail._sweep_algebra(*args) == default, tile
            monkeypatch.undo()

    def test_decide_matches_default_tile(self, monkeypatch):
        rng = random.Random(58)
        for _ in range(40):
            theory, query = self.random_case(rng)
            budgets = Budgets(rng.randint(0, 50), rng.randint(1, 800), rng.randint(2, 4))
            default = decide(theory, query, budgets)
            for tile in self.TILES:
                monkeypatch.setattr(entail, "_TILE_EVALS", tile)
                assert decide(theory, query, budgets) == default, tile
            monkeypatch.undo()

    def test_memory_bounded_by_tile_not_budget(self):
        chain, theory = TestWideTheories.wide_theory(60)
        query = F(f"{chain[0]} -> {chain[-1]}")
        variables = sorted(theory.variables | query.variables)
        algebra = next(a for a in enumerate_pomonoids(2) if a.size == 2)
        tracemalloc.start()
        try:
            hit, count = entail._sweep_algebra(
                algebra, theory.distinct_formulas(), query, variables, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # decoding all 10**6 indices at once peaked near 170 MB
        assert (hit, count) == (None, 10**6)
        assert peak < 16 * 2**20, peak


class TestDigitColumnCache:
    """The sweep takes a tile's low digit columns from one process-wide
    cache: read-only, one entry per (algebra size, digits), whatever the
    budget cuts."""

    @staticmethod
    def tile_digits(s, k, tile):
        m = 0
        while m < k and 1 < s ** (m + 1) <= tile:
            m += 1
        return m

    def test_matches_scalar_scan_and_stays_small(self, monkeypatch):
        monkeypatch.setattr(entail, "_DIGIT_COLUMNS", {})
        default = entail._TILE_EVALS
        rng = random.Random(59)
        by_size = {}
        for algebra in enumerate_pomonoids(5):
            by_size.setdefault(algebra.size, []).append(algebra)
        used = set()
        for _ in range(120):
            theory, query = TestTiledSweep().random_case(rng)
            variables = sorted(theory.variables | query.variables)
            algebra = rng.choice(by_size[rng.randint(1, 5)])
            s, k = algebra.size, len(variables)
            # budgets that end inside a tile as well as past the end
            limit = rng.choice((1, 2, 5, 13, 50, rng.randint(1, 700), 10**6))
            count = min(s**k, limit)
            scan = (tuple(e.assignment[name] for name in variables)
                    for i, e in enumerate(oracles.all_evaluations(algebra, variables))
                    if i < count and is_model(e, theory) and not satisfies(e, query))
            expected = (next(scan, None), count)
            args = (algebra, theory.distinct_formulas(), query, variables, limit)
            for tile in (default, *TestTiledSweep.TILES):
                monkeypatch.setattr(entail, "_TILE_EVALS", tile)
                assert entail._sweep_algebra(*args) == expected, tile
                used.add((s, self.tile_digits(s, k, tile)))
        assert {size for size, _ in used} == {1, 2, 3, 4, 5}
        cache = entail._DIGIT_COLUMNS
        # one entry per (s, m): none for a budget's width
        assert set(cache) == used
        for (s, m), columns in cache.items():
            # each entry spans a whole tile, however short the budget cut it
            index = np.arange(s**m)
            assert len(columns) == m
            for pos, column in enumerate(columns):
                expected = (index // s ** (m - 1 - pos)) % s
                assert np.array_equal(column, expected)

    def test_columns_are_read_only(self, monkeypatch):
        monkeypatch.setattr(entail, "_DIGIT_COLUMNS", {})
        theory, query = parse_theory("a b -> c\nc -> d"), F("a -> d")
        variables = sorted(theory.variables | query.variables)
        arrays = 0
        for algebra in enumerate_pomonoids(4):
            entail._sweep_algebra(algebra, theory.distinct_formulas(), query, variables, 7)
        for columns in entail._DIGIT_COLUMNS.values():
            for column in columns:
                arrays += 1
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = 1
        assert arrays >= 3 * 4


# ============================================================
# The combined decision procedure
# ============================================================


class TestDecide:
    def test_fast_path_proved(self):
        verdict = decide(parse_theory("p -> p p"), F("p -> p p p p"))
        assert isinstance(verdict, Proved)
        assert len(verdict.path) == 3
        check_proof(verdict.certificate, parse_theory("p -> p p"))

    def test_fast_path_needs_no_budget_escalation(self):
        theory, query = parse_theory("p -> p p"), F("p -> p p p p")
        tight = decide(theory, query, Budgets(bfs_nodes=1))
        assert isinstance(tight, Proved)
        assert tight == decide(theory, query)
        assert len(tight.path) == 3

    def test_fast_path_refuted(self):
        verdict = decide(parse_theory("p -> p q"), F("p -> r"))
        assert isinstance(verdict, Refuted)
        assert verdict.method == "member-algorithm"
        assert verdict.algebra is None
        assert verdict.evaluation is None

    def test_interleaved_proved(self, no_additivity):
        verdict = decide(no_additivity, F("p p -> q r"))
        assert isinstance(verdict, Proved)
        assert len(verdict.path) == 2
        assert [
            (format_mfd(s.rule), format_multiset(s.result)) for s in verdict.path.steps
        ] == [("p -> q", "p q"), ("p -> r", "q r")]

    def test_interleaved_refuted(self, no_additivity):
        verdict = decide(no_additivity, F("p -> q r"))
        assert isinstance(verdict, Refuted)
        assert verdict.method == "countermodel"
        assert verdict.algebra is not None
        assert is_model(verdict.evaluation, no_additivity)
        assert not satisfies(verdict.evaluation, F("p -> q r"))

    def test_unknown_report_is_exact(self, no_additivity):
        verdict = decide(no_additivity, F("p -> q r"), Budgets(3, 3, 2))
        assert isinstance(verdict, Unknown)
        assert verdict.report == BudgetReport(
            bfs_nodes_used=3,
            bfs_exhausted=True,
            model_evals_used=3,
            algebras_scanned=2,
            models_exhausted=False,
        )

    def test_unknown_when_nothing_small_refutes(self, needs_nonlinear, monkeypatch):
        # the only refuting algebra has five elements; no basis is computed
        monkeypatch.setattr(entail, "_BASIS_CAP", 0)
        verdict = decide(needs_nonlinear, F("p -> q"), Budgets(2_000, 100_000, 4))
        assert isinstance(verdict, Unknown)
        assert verdict.report.models_exhausted is True

    def test_invariant_when_nothing_small_refutes(self, needs_nonlinear):
        # the same sweep, exhausted; the basis then shows p -> q unprovable
        verdict = decide(needs_nonlinear, F("p -> q"), Budgets(2_000, 100_000, 4))
        assert isinstance(verdict, Refuted) and verdict.method == "invariant"
        assert verdict.algebra is None and verdict.evaluation is None
        assert [format_multiset(m) for m in verdict.invariant] == [
            "p p", "p u", "p v", "p x", "p y", "q", "u y", "v x"]
        check_invariant(verdict.invariant, needs_nonlinear, F("p -> q"))

    def test_refutes_with_larger_cap(self, needs_nonlinear):
        verdict = decide(needs_nonlinear, F("p -> q"), Budgets(2_000, 1_000_000, 5))
        assert isinstance(verdict, Refuted)
        assert verdict.algebra.size == 5

    @pytest.mark.parametrize(
        "budgets,cap,kind",
        [(Budgets(2_000, 1_000_000, 5), entail._BASIS_CAP, Refuted),
         (Budgets(2_000, 100_000, 4), 0, Unknown),
         (Budgets(2_000, 100_000, 4), entail._BASIS_CAP, Refuted)],
        ids=["budgets0-Refuted", "budgets1-Unknown", "budgets2-Refuted"],
    )
    def test_repeated_calls_agree(self, needs_nonlinear, budgets, cap, kind, monkeypatch):
        # the second call replays memoized algebras; nothing may change
        monkeypatch.setattr(entail, "_BASIS_CAP", cap)
        first = decide(needs_nonlinear, F("p -> q"), budgets)
        second = decide(needs_nonlinear, F("p -> q"), budgets)
        assert isinstance(first, kind)
        # compares the algebra, the evaluation, the invariant and the budget report
        assert first == second

    def test_verdicts_are_exclusive_and_certified(self, pomonoids_upto_3):
        rng = random.Random(77)
        names = ("a", "b", "c")
        seen = set()
        for _ in range(30):
            theory = Theory(
                tuple(
                    Mfd(rand_multiset(rng, names, 2), rand_multiset(rng, names, 2))
                    for _ in range(rng.randint(1, 2))
                )
            )
            query = Mfd(rand_multiset(rng, names, 2), rand_multiset(rng, names, 2))
            verdict = decide(theory, query, Budgets(3_000, 50_000, 3))
            seen.add(type(verdict).__name__)
            if isinstance(verdict, Proved):
                assert check_proof(verdict.certificate, theory) == query
                assert oracles.holds_in_all_models(theory, query, pomonoids_upto_3)
            elif isinstance(verdict, Refuted) and verdict.method == "countermodel":
                assert is_model(verdict.evaluation, theory)
                assert not satisfies(verdict.evaluation, query)
        assert "Proved" in seen and "Refuted" in seen


def _naive_basis(theory, query):
    """The fixpoint built with predecessors m - gain, cut off at 0, instead of
    max(ant, m - gain): it leaves out that a rule needs its antecedent."""
    space = formula._CountVectors(entail._universe(theory, query), theory.distinct_formulas())
    basis = {space.vec(query.consequent)}
    todo = list(basis)
    for m in todo:
        if m not in basis:
            continue
        for _, _, gain in space.rules:
            p = tuple(max(0, c - g) for c, g in zip(m, gain))
            if any(all(x <= y for x, y in zip(b, p)) for b in basis):
                continue
            basis = {b for b in basis if not all(x <= y for x, y in zip(p, b))}
            basis.add(p)
            todo.append(p)
    return tuple(map(space.unvec, basis))


def _refutes_by_forward_rewriting(invariant, theory, query):
    """Whether ``invariant`` shows the query unprovable, checked forwards
    with Counter arithmetic and without ``check_invariant``: its upward
    closure U holds B, not A, and no multiset outside U rewrites in one step
    into U.  Membership in U only sees counts up to K, the largest count in
    an element, and a rule only tests counts up to its antecedent's, so the
    multisets with every count at most K plus the largest antecedent count
    stand for all of them."""
    elements = [Counter(dict(e.items())) for e in invariant]

    def covered(w):
        return any(all(w[x] >= n for x, n in e.items()) for e in elements)

    rules = [(Counter(dict(f.antecedent.items())), Counter(dict(f.consequent.items())))
             for f in theory.formulas]
    names = sorted(theory.variables | query.variables)
    top = max((n for e in elements for n in e.values()), default=0)
    top += max((n for ant, _ in rules for n in ant.values()), default=0)
    for counts in product(range(top + 1), repeat=len(names)):
        w = Counter(dict(zip(names, counts)))
        if covered(w):
            continue
        for ant, con in rules:
            if all(w[x] >= n for x, n in ant.items()) and covered(w - ant + con):
                return False
    return (covered(Counter(dict(query.consequent.items())))
            and not covered(Counter(dict(query.antecedent.items()))))


class TestCoverabilityBasis:
    """The basis ``decide`` refutes with once the sweep is exhausted, against
    the BFS, ``member`` and mutated certificates."""

    @staticmethod
    def _instances(seed, count):
        rng = random.Random(seed)
        names = ("a", "b", "c")
        for _ in range(count):
            theory = Theory(tuple(
                Mfd(rand_multiset(rng, names, 3), rand_multiset(rng, names, 3))
                for _ in range(rng.randint(1, 3))
            ))
            yield theory, Mfd(rand_multiset(rng, names, 3), rand_multiset(rng, names, 3))

    def test_agrees_with_bfs_and_member(self):
        seen = Counter()
        for theory, query in self._instances(1717, 600):
            # a cap no instance here reaches: None means provable
            invariant = entail._refuting_invariant(theory, query, 10_000)
            if is_non_contracting_theory(theory):
                assert (invariant is None) == member(theory, query)
                seen["member", invariant is None] += 1
                continue
            bfs = bfs_prove(theory, query, 2_000)
            if isinstance(bfs, Proved):
                assert invariant is None
                seen["proved"] += 1
            elif bfs.report.bfs_exhausted:
                assert invariant is not None
                seen["exhausted"] += 1
            else:
                seen["budget", invariant is None] += 1
        # where the BFS ran out, the basis refuted every one
        assert min(seen.values()) >= 10 and len(seen) == 5, seen

    def _decided_invariants(self):
        # the one-element algebra refutes nothing, so the sweep ends at once
        for theory, query in self._instances(4242, 400):
            verdict = decide(theory, query, Budgets(500, 10_000, 1))
            if isinstance(verdict, Refuted) and verdict.method == "invariant":
                yield theory, query, verdict

    def test_check_accepts_decide_and_rejects_mutants(self):
        naive = Counter()
        refuted = 0
        for theory, query, verdict in self._decided_invariants():
            refuted += 1
            invariant = verdict.invariant
            assert verdict.query == query and verdict.algebra is None
            check_invariant(invariant, theory, query)
            assert _refutes_by_forward_rewriting(invariant, theory, query)
            assert verdict_from_json(verdict_to_json(verdict)) == verdict
            for k in range(len(invariant)):
                dropped = invariant[:k] + invariant[k + 1:]
                with pytest.raises(ProofError):
                    check_invariant(dropped, theory, query)
                assert not _refutes_by_forward_rewriting(dropped, theory, query)
                # one more of an attribute in one element
                raised = dropped + (invariant[k].union(M("a")),)
                with pytest.raises(ProofError):
                    check_invariant(raised, theory, query)
            below = AttributeMultiset(
                {name: random.Random(refuted).randint(0, mult)
                 for name, mult in query.antecedent.items()})
            with pytest.raises(ProofError, match="holds the antecedent"):
                check_invariant(invariant + (below,), theory, query)
            # m - gain only drops elements lower: the naive fixpoint is a
            # larger upward closed set; where it takes in the antecedent it
            # is refused, elsewhere it is a true (coarser) invariant
            coarse = _naive_basis(theory, query)
            if any(query.antecedent.contains_multiset(e) for e in coarse):
                with pytest.raises(ProofError, match="holds the antecedent"):
                    check_invariant(coarse, theory, query)
                naive["rejected"] += 1
            else:
                check_invariant(coarse, theory, query)
                naive["accepted"] += 1
        assert refuted >= 40 and naive["rejected"] >= 3, (refuted, naive)

    def test_cap_counts_replaced_vectors(self, monkeypatch):
        # from a^100 each a^k b replaces a^(k+1) b: 100 vectors are added
        # for a basis of 2; nothing fires from c, and one element refutes nothing
        theory = parse_theory("a b -> a a b\nc c -> c")
        query = Mfd(M("c"), M("a").power(100))
        tight = Budgets(bfs_nodes=10, max_algebra_size=1)
        monkeypatch.setattr(entail, "_BASIS_CAP", 100)
        verdict = decide(theory, query, tight)
        assert verdict.method == "invariant"
        assert [format_multiset(m) for m in verdict.invariant] == [format_multiset(query.consequent), "a b"]
        for cap in (0, 1, 64, 99):
            monkeypatch.setattr(entail, "_BASIS_CAP", cap)
            off = decide(theory, query, tight)
            assert isinstance(off, Unknown) and off.report.models_exhausted

    def test_counter_hands_back_to_the_bfs(self):
        # a^n b -> b^(n+1) under a b -> b b: the basis grows one vector per
        # step, so past the cap the BFS proves it, after the sweep is done
        theory = parse_theory("a b -> b b")
        query = Mfd(M("a").power(100).union(M("b")), M("b").power(101))
        space = formula._CountVectors(entail._universe(theory, query), theory.distinct_formulas())
        start, goal = space.vec(query.antecedent), space.vec(query.consequent)
        assert entail._coverability_basis(space, start, goal, 64) is None
        assert entail._coverability_basis(space, (99, 1), goal, 10**4) == [
            (k, 101 - k) for k in range(100, -1, -1)]
        verdict = decide(theory, query)
        assert isinstance(verdict, Proved) and len(verdict.path) == 100


class TestUnknownReportIsScheduleFree:
    """``decide`` runs one BFS layer against one algebra sweep, but each
    engine's figures are its own: an Unknown reports what ``bfs_prove``
    spends alone plus what the model sweep spends alone, run to its end."""

    def test_report_is_the_sum_of_solo_runs(self):
        rng = random.Random(60)
        names = ("a", "b", "c")
        unknown = exhausted = 0
        while unknown < 60:
            theory = Theory(tuple(
                Mfd(rand_multiset(rng, names, 3), rand_multiset(rng, names, 3))
                for _ in range(rng.randint(1, 3))
            ))
            if is_non_contracting_theory(theory):
                continue
            query = Mfd(rand_multiset(rng, names, 3), rand_multiset(rng, names, 3))
            budgets = Budgets(rng.randint(0, 60), rng.randint(0, 400), rng.randint(1, 4))
            verdict = decide(theory, query, budgets)
            if not isinstance(verdict, Unknown):
                continue
            unknown += 1
            bfs = bfs_prove(theory, query, budgets.bfs_nodes)
            assert isinstance(bfs, Unknown)
            *_, last = entail._countermodel_engine(
                theory, query, budgets.max_algebra_size, budgets.model_evals)
            assert last[0] in ("budget", "exhausted")
            assert verdict.report == BudgetReport(
                bfs_nodes_used=bfs.report.bfs_nodes_used,
                bfs_exhausted=bfs.report.bfs_exhausted,
                model_evals_used=last[1],
                algebras_scanned=last[2],
                models_exhausted=last[0] == "exhausted",
            )
            exhausted += verdict.report.bfs_exhausted + verdict.report.models_exhausted
        # both engines' ends show up: budget cuts and finished spaces
        assert 0 < exhausted < 2 * unknown


class TestBudgetsContract:
    """A limit is accepted or rejected when its Budgets is built, so every
    entry point answers alike whatever the theory and query."""

    INSTANCES = {
        # the start covers the goal: proved with no rewrite step
        "axiom": ("p p -> q", "p q -> p"),
        "refutable": ("p p -> q", "p -> q"),
        # member decides it: no search looks at a budget
        "non-contracting": ("p -> p q", "p -> q"),
    }
    BAD = [
        ("bfs_nodes", 2.5, TypeError, "bfs_nodes must be an int, not float"),
        ("model_evals", 2.5, TypeError, "model_evals must be an int, not float"),
        ("model_evals", 5.0, TypeError, "model_evals must be an int, not float"),
        ("max_algebra_size", 2.0, TypeError, "max_algebra_size must be an int, not float"),
        ("bfs_nodes", -1, ValueError, "bfs_nodes must not be negative, got -1"),
        ("model_evals", -3, ValueError, "model_evals must not be negative, got -3"),
        ("max_algebra_size", 0, ValueError, "max_algebra_size must be in 1..6, got 0"),
        ("max_algebra_size", 7, ValueError, "max_algebra_size must be in 1..6, got 7"),
    ]

    @staticmethod
    def entry_points(instance, name, value):
        """Each public call that takes the limit ``name``, set to ``value``."""
        theory, query = parse_theory(instance[0]), F(instance[1])
        calls = {"decide": lambda: decide(theory, query, Budgets(**{name: value}))}
        if name == "bfs_nodes":
            calls["bfs_prove"] = lambda: bfs_prove(theory, query, value)
        else:
            keyword = {"model_evals": "budget", "max_algebra_size": "max_size"}[name]
            calls["find_countermodel"] = lambda: find_countermodel(theory, query, **{keyword: value})
        return calls

    @pytest.mark.parametrize("instance", INSTANCES)
    @pytest.mark.parametrize("name,value,error,message", BAD)
    def test_bad_limit_fails_alike_on_every_path(self, instance, name, value, error, message):
        for entry, call in self.entry_points(self.INSTANCES[instance], name, value).items():
            with pytest.raises(Exception) as info:
                call()
            assert (type(info.value), str(info.value)) == (error, message), entry

    @pytest.mark.parametrize("instance", INSTANCES)
    @pytest.mark.parametrize("name", ["bfs_nodes", "model_evals", "max_algebra_size"])
    def test_numpy_ints_act_as_ints(self, instance, name):
        limits = {"bfs_nodes": 50, "model_evals": 500, "max_algebra_size": 3}
        budgets = Budgets(**{**limits, name: np.int64(limits[name])})
        assert type(getattr(budgets, name)) is int and budgets == Budgets(**limits)

        def outcome(result):
            if isinstance(result, tuple):
                return result[0], result[1].assignment
            return result if result is None else verdict_to_json(result)

        plain = self.entry_points(self.INSTANCES[instance], name, limits[name])
        numpy = self.entry_points(self.INSTANCES[instance], name, np.int64(limits[name]))
        for entry in plain:
            assert outcome(numpy[entry]()) == outcome(plain[entry]()), entry


class TestSaturationProofs:
    """Non-contracting theories are proved from the member run's firings."""

    def test_growth_chain_needs_no_search(self, growth_chain, monkeypatch):
        def no_bfs(*args):
            raise AssertionError("decide searched a non-contracting theory")

        monkeypatch.setattr(entail, "_bfs_engine", no_bfs)
        theory, query = parse_theory(growth_chain), F("g0 -> g40")
        verdict = decide(theory, query, Budgets(bfs_nodes=10))
        assert isinstance(verdict, Proved)
        assert len(verdict.path) == 40
        assert check_proof(verdict.certificate, theory) == query

    def test_zero_step_proof(self):
        theory, query = parse_theory("p -> p q"), F("p q -> q")
        verdict = decide(theory, query)
        assert isinstance(verdict, Proved)
        assert len(verdict.path) == 0
        assert check_proof(verdict.certificate, theory) == query

    def test_agrees_with_member_and_bfs(self):
        rng = random.Random(11)
        names = ("a", "b", "c", "d")
        seen = Counter()
        for _ in range(300):
            formulas = []
            for _ in range(rng.randint(1, 4)):
                ant = rand_multiset(rng, names, most=2)
                formulas.append(Mfd(ant, ant.union(rand_multiset(rng, names, most=2))))
            theory = Theory(tuple(formulas))
            query = Mfd(rand_multiset(rng, names), rand_multiset(rng, names))
            verdict = decide(theory, query, Budgets(bfs_nodes=1))
            seen[type(verdict).__name__] += 1
            assert isinstance(verdict, Proved) == member(theory, query)
            if not isinstance(verdict, Proved):
                assert verdict.method == "member-algorithm"
                continue
            w = verdict.path.start
            assert w == query.antecedent
            for step in verdict.path.steps:
                assert step in rewrite_successors(w, theory)
                w = step.result
            assert w.contains_multiset(query.consequent)
            assert check_proof(verdict.certificate, theory) == query
            shortest = bfs_prove(theory, query, 10**6)
            assert isinstance(shortest, Proved)
            assert len(verdict.path) >= len(shortest.path)
        assert seen["Proved"] >= 100 and seen["Refuted"] >= 100


class TestMultiplicityCap:
    """States are count tuples inside the engines; the cap is enforced when
    one leaves as a multiset, so a lowered cap still stops every engine."""

    def test_lowered_cap_raises(self, monkeypatch):
        growing, query = parse_theory("p -> p p"), F("p p p -> q")
        contracting = parse_theory("p -> p p\np p p p -> q")
        monkeypatch.setattr(formula, "MULTIPLICITY_CAP", 3)
        with pytest.raises(MultiplicityOverflowError):
            member_trace(growing, query)
        with pytest.raises(MultiplicityOverflowError):
            decide(growing, query)
        with pytest.raises(MultiplicityOverflowError):
            entail._saturation_path(growing, F("p p p -> p p p p"))
        with pytest.raises(MultiplicityOverflowError):
            bfs_prove(contracting, query)

    def test_at_the_cap_is_fine(self, monkeypatch):
        growing, query = parse_theory("p -> p p"), F("p p -> p p p")
        monkeypatch.setattr(formula, "MULTIPLICITY_CAP", 3)
        assert member_trace(growing, query).result
        assert isinstance(decide(growing, query), Proved)
        assert isinstance(bfs_prove(growing, query), Proved)


# ============================================================
# Local deduction
# ============================================================


class TestDeductionWitness:
    def test_two_copies_needed(self, no_additivity):
        assert deduction_witness(no_additivity, M("p"), M("q r"), 4) == 2

    def test_cap_below_witness(self, no_additivity):
        assert deduction_witness(no_additivity, M("p"), M("q r"), 1) is None

    def test_zero_witness(self):
        assert deduction_witness(Theory(()), M("p"), M("1"), 3) == 0

    def test_empty_theory_has_no_witness(self):
        assert deduction_witness(Theory(()), M("p"), M("q"), 4) is None

    def test_witness_is_least_and_proved(self, no_accumulation):
        n = deduction_witness(no_accumulation, M("p"), M("q r s t"), 4)
        assert n == 2
        assert isinstance(
            decide(no_accumulation, Mfd(M("p").power(n), M("q r s t"))), Proved
        )
        assert not isinstance(
            decide(no_accumulation, Mfd(M("p").power(n - 1), M("q r s t"))), Proved
        )

    def test_unknown_power_is_not_skipped(self):
        # nothing fires from 1, so n = 0 is ruled out by an exhausted graph;
        # a a -> d fires at n = 2 within these budgets, but n = 1 (a -> b ->
        # c -> d) is out of reach: the answer is that Unknown, not 2
        theory = parse_theory("a a -> d\na -> b\nb -> c\nc -> d")
        tight = Budgets(bfs_nodes=3, model_evals=0, max_algebra_size=1)
        verdict = deduction_witness(theory, M("a"), M("d"), 3, tight)
        assert isinstance(verdict, Unknown)
        assert verdict.query == F("a -> d")
        assert verdict.report.bfs_nodes_used == 3
        assert deduction_witness(theory, M("a"), M("d"), 3) == 1

    def test_invariant_power_is_stepped_past(self, monkeypatch):
        # p -> p q is unprovable, as p is used up, but s -> s s makes its
        # rewrite graph infinite and one element refutes nothing: the basis
        # refutes n = 1, and p p -> p q s proves n = 2
        theory = parse_theory("p -> q s\ns -> s s")
        tight = Budgets(bfs_nodes=5, max_algebra_size=1)
        assert deduction_witness(theory, M("p"), M("p q"), 3, tight) == 2
        refuted = decide(theory, F("p -> p q"), tight)
        assert refuted.method == "invariant"
        check_invariant(refuted.invariant, theory, F("p -> p q"))
        # without the basis, n = 1 is where it stops
        monkeypatch.setattr(entail, "_BASIS_CAP", 0)
        off = deduction_witness(theory, M("p"), M("p q"), 3, tight)
        assert isinstance(off, Unknown) and off.query == F("p -> p q")
        assert not off.report.bfs_exhausted

    def test_n_max_is_checked_as_a_count(self, no_additivity):
        with pytest.raises(TypeError, match="n_max must be an int, not float"):
            deduction_witness(no_additivity, M("p"), M("q r"), 1.5)
        with pytest.raises(ValueError, match="n_max must not be negative, got -1"):
            deduction_witness(no_additivity, M("p"), M("q r"), -1)
        assert deduction_witness(no_additivity, M("p"), M("q r"), np.int64(2)) == 2


# ============================================================
# Classical comparison point
# ============================================================


class TestClassicalEntails:
    def test_textbook_closure(self):
        theory = parse_theory("a -> b\nb c -> d")
        assert classical_entails(theory, F("a c -> d"))
        assert not classical_entails(theory, F("a -> d"))

    def test_multiplicities_collapse(self):
        theory = parse_theory("p -> q")
        assert classical_entails(theory, F("p p -> q q q"))
        assert classical_entails(theory, F("p -> q q"))

    def test_additivity_holds_classically(self, no_additivity):
        assert classical_entails(no_additivity, F("p -> q r"))

    def test_agreement_with_closure_oracle(self):
        rng = random.Random(13)
        names = ("a", "b", "c", "d")
        hits = 0
        for _ in range(50):
            theory = Theory(
                tuple(
                    Mfd(rand_multiset(rng, names, 2), rand_multiset(rng, names, 2))
                    for _ in range(rng.randint(1, 4))
                )
            )
            query = Mfd(rand_multiset(rng, names, 2), rand_multiset(rng, names, 2))
            fds = [
                (set(f.antecedent.support), set(f.consequent.support)) for f in theory
            ]
            expected = oracles.classical_closure(fds, set(query.antecedent.support)) >= set(
                query.consequent.support
            )
            assert classical_entails(theory, query) == expected
            hits += expected
        assert 0 < hits < 50


# ============================================================
# Pinned engine output
# ============================================================


def _pinned_cases():
    """Seeded small theories, every other one non-contracting, each with a
    query and one of a few budget mixes (zero budgets included)."""
    rng = random.Random(2718)
    names = ("a", "b", "c")
    mixes = (Budgets(0, 0, 1), Budgets(1, 10, 2), Budgets(40, 500, 2),
             Budgets(400, 5_000, 3), Budgets(3_000, 20_000, 3))
    for i in range(300):
        formulas = []
        for _ in range(rng.randint(1, 3)):
            ant = rand_multiset(rng, names, 2)
            extra = rand_multiset(rng, names, 2)
            formulas.append(Mfd(ant, ant.union(extra) if i % 2 == 0 else extra))
        query = Mfd(rand_multiset(rng, names, 3), rand_multiset(rng, names, 3))
        mix = mixes[rng.randrange(len(mixes))]
        yield Theory(tuple(formulas)), query, mix


def _pinned_run(monkeypatch, basis_cap):
    """The digest of the pinned corpus, the count of each verdict kind, and
    the verdicts, with ``basis_cap`` as ``decide``'s cap on the basis."""
    monkeypatch.setattr(entail, "_BASIS_CAP", basis_cap)
    h = hashlib.sha256()
    kinds = Counter()
    verdicts = []
    for theory, query, budgets in _pinned_cases():
        verdict = decide(theory, query, budgets)
        verdicts.append((theory, verdict))
        kinds[type(verdict).__name__, getattr(verdict, "method", "")] += 1
        h.update(json.dumps(verdict_to_json(verdict), sort_keys=True).encode())
        if is_non_contracting_theory(theory):
            t = member_trace(theory, query)
            h.update(repr((t.fresh_var, t.counter_final, t.result)).encode())
            for p in t.passes:
                h.update(format_multiset(p.snapshot).encode())
                h.update("|".join(map(format_mfd, p.fired)).encode())
    return h.hexdigest(), kinds, verdicts


class TestPinnedOutput:
    """Every engine's output on a fixed corpus, pinned by one digest.

    The digest covers each ``decide`` verdict as ``verdict_to_json`` writes
    it (paths, certificates, countermodels, invariants, budget reports)
    and, for the non-contracting theories, every pass of ``member_trace``.
    A change to any engine's output shows up here even where the verdict
    kind stays.  With the coverability basis off, the output is the one
    pinned before the basis existed."""

    DIGEST = "3353edae4d15bc2444fb21cf74a1fc592ac81115bba334aced4309cdaf636f39"
    DIGEST_WITH_BASIS = "6182e4e818dbb7bb61d4914b1183e3063d50bdea041fa7d679e8b4e48f2b6d17"

    def test_digest(self, monkeypatch):
        digest, kinds, _ = _pinned_run(monkeypatch, 0)
        assert len(kinds) == 4 and min(kinds.values()) >= 15, kinds
        assert digest == self.DIGEST, digest

    def test_digest_with_basis(self, monkeypatch):
        digest, kinds, verdicts = _pinned_run(monkeypatch, entail._BASIS_CAP)
        _, kinds_off, verdicts_off = _pinned_run(monkeypatch, 0)
        # the basis only turns Unknowns into checked invariant refutations
        invariant = ("Refuted", "invariant")
        assert set(kinds) == set(kinds_off) | {invariant} and len(kinds) == 5, kinds
        assert kinds_off - kinds == Counter({("Unknown", ""): kinds[invariant]}), kinds
        for (theory, verdict), (_, off) in zip(verdicts, verdicts_off):
            if verdict != off:
                assert isinstance(off, Unknown) and off.report.models_exhausted
                assert verdict.method == "invariant"
                check_invariant(verdict.invariant, theory, verdict.query)
                assert _refutes_by_forward_rewriting(verdict.invariant, theory, verdict.query)
        assert digest == self.DIGEST_WITH_BASIS, digest
