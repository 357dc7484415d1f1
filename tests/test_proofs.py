"""Proof trees: construction, verification, derived rules, certificates."""

import random
from collections import Counter

import pytest

import oracles
from mfdlogic import (
    AttributeMultiset,
    AxInstance,
    Cut,
    Hyp,
    Mfd,
    ProofError,
    ProofParseError,
    RewritePath,
    RewriteStep,
    Theory,
    TheoryParseError,
    TOP,
    certificate_from_path,
    check_proof,
    decide,
    derive_aug,
    derive_pro,
    derive_ref,
    derive_rwt,
    derive_tra,
    derive_weak_additivity,
    format_mfd,
    format_proof,
    parse_mfd,
    parse_multiset,
    parse_proof,
    parse_theory,
)
from mfdlogic import proofs

M = parse_multiset
F = parse_mfd


def walk(tree):
    """Yield every node of a proof tree."""
    yield tree
    if isinstance(tree, Cut):
        yield from walk(tree.left)
        yield from walk(tree.right)


def walk_distinct(tree):
    """Yield each distinct node object of a proof tree once."""
    seen, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            if isinstance(node, Cut):
                stack += [node.left, node.right]


# ============================================================
# Nodes
# ============================================================


class TestNodes:
    def test_hyp_conclusion(self):
        assert Hyp(F("p -> q")).conclusion == F("p -> q")

    def test_ax_conclusion(self):
        assert AxInstance(M("a b"), M("c")).conclusion == F("a b c -> c")
        assert AxInstance(TOP, M("a a")).conclusion == F("a a -> a a")

    def test_cut_stores_conclusion(self):
        node = Cut(Hyp(F("p -> q")), AxInstance(M("r"), M("q")), F("p r -> q"))
        assert node.conclusion == F("p r -> q")

    def test_nodes_are_frozen(self):
        with pytest.raises(AttributeError):
            Hyp(F("p -> q")).formula = F("p -> p")

    def test_nodes_are_hashable(self):
        assert len({Hyp(F("p -> q")), Hyp(F("p -> q"))}) == 1


# ============================================================
# Verification
# ============================================================


class TestCheckProof:
    def test_housing_composition(self):
        theory = parse_theory("loc area -> price")
        tree = Cut(
            Hyp(F("loc area -> price")),
            AxInstance(M("area"), M("price")),
            F("loc area area -> price"),
        )
        assert check_proof(tree, theory) == F("loc area area -> price")

    def test_hyp_must_be_in_theory(self):
        with pytest.raises(ProofError, match="hypothesis"):
            check_proof(Hyp(F("p -> q")), parse_theory("p -> r"))

    def test_ax_needs_no_theory(self):
        got = check_proof(AxInstance(M("x"), M("y")), Theory(()))
        assert got == F("x y -> y")

    def test_cut_premises_must_compose(self):
        # left consequent q does not divide right antecedent r s
        bad = Cut(
            AxInstance(M("p"), M("q")),
            AxInstance(M("r"), M("s")),
            F("p r -> s"),
        )
        with pytest.raises(ProofError, match="compose"):
            check_proof(bad, Theory(()))

    def test_stored_conclusion_must_match(self):
        bad = Cut(
            Hyp(F("p -> q")),
            AxInstance(M("r"), M("q")),
            F("p -> q"),  # drops the remainder r
        )
        with pytest.raises(ProofError, match="mismatch"):
            check_proof(bad, parse_theory("p -> q"))

    def test_rejects_foreign_objects(self):
        with pytest.raises(ProofError, match="not a proof node"):
            check_proof(F("p -> q"), Theory(()))
        # a string child is a foreign object, not a piece of certificate text
        junk = Cut("junk", Hyp(F("p -> q")), F("p -> q"))
        with pytest.raises(ProofError, match="not a proof node: 'junk'"):
            check_proof(junk, parse_theory("p -> q"))
        with pytest.raises(ProofError, match="not a proof node: 'junk'"):
            format_proof(junk)

    def test_shared_subproofs_are_checked_once(self, monkeypatch):
        theory = parse_theory("a -> b")
        tree = Hyp(F("a -> b"))
        for _ in range(12):
            tree = derive_weak_additivity(tree, tree)
        cuts = sum(isinstance(node, Cut) for node in walk_distinct(tree))
        calls = []
        divides = proofs.divides

        def counting_divides(*args):
            calls.append(args)
            return divides(*args)

        monkeypatch.setattr(proofs, "divides", counting_divides)
        assert check_proof(tree, theory) == Mfd(M("a").power(4096), M("b").power(4096))
        # re-walking the shared subproofs made 2 ** 12 times as many checks
        assert len(calls) == cuts

    def test_shared_subproofs_are_compared_and_hashed_once(self):
        comparisons = []

        class CountingHyp(Hyp):
            def __eq__(self, other):
                comparisons.append(other)
                return super().__eq__(other)

            __hash__ = Hyp.__hash__

        def build(tree):
            for _ in range(12):
                tree = derive_weak_additivity(tree, tree)
            return tree

        t1, t2 = build(CountingHyp(F("a -> b"))), build(CountingHyp(F("a -> b")))
        assert t1 == t2 and t1 is not t2
        # one comparison per distinct leaf, not one per leaf of the unfolded trees
        assert len(comparisons) <= 2
        assert hash(t1) == hash(t2)
        # same conclusion at every cut; only the shared leaf differs
        hyp, ax = build(Hyp(F("a b -> a"))), build(AxInstance(M("b"), M("a")))
        assert hyp.conclusion == ax.conclusion and hyp != ax and ax != hyp


# ============================================================
# Derived rules
# ============================================================


class TestDerivedRules:
    def assert_derives(self, tree, expected: str, theory: Theory = Theory(())):
        assert check_proof(tree, theory) == F(expected)
        assert tree.conclusion == F(expected)

    def test_ref(self):
        self.assert_derives(derive_ref(M("a a b")), "a a b -> a a b")

    def test_tra(self):
        theory = parse_theory("p -> q\nq -> r r")
        tree = derive_tra(Hyp(F("p -> q")), Hyp(F("q -> r r")))
        self.assert_derives(tree, "p -> r r", theory)

    def test_tra_requires_matching_middle(self):
        with pytest.raises(ProofError, match="transitivity"):
            derive_tra(derive_ref(M("p")), derive_ref(M("q")))

    def test_aug(self):
        theory = parse_theory("p -> q")
        tree = derive_aug(Hyp(F("p -> q")), M("r r"))
        self.assert_derives(tree, "p r r -> q r r", theory)

    def test_aug_by_unit_keeps_formula(self):
        theory = parse_theory("p -> q")
        tree = derive_aug(Hyp(F("p -> q")), TOP)
        self.assert_derives(tree, "p -> q", theory)

    def test_rwt(self):
        theory = parse_theory("p -> q r\nr -> s s")
        tree = derive_rwt(Hyp(F("p -> q r")), Hyp(F("r -> s s")))
        self.assert_derives(tree, "p -> q s s", theory)

    def test_rwt_whole_consequent(self):
        theory = parse_theory("p -> q\nq -> r")
        tree = derive_rwt(Hyp(F("p -> q")), Hyp(F("q -> r")))
        self.assert_derives(tree, "p -> r", theory)

    def test_rwt_part_must_divide(self):
        theory = parse_theory("p -> q\nr -> s")
        with pytest.raises(ProofError, match="does not divide"):
            derive_rwt(Hyp(F("p -> q")), Hyp(F("r -> s")))

    def test_rwt_respects_multiplicity(self):
        # q appears once in the consequent, so q q cannot be rewritten
        theory = parse_theory("p -> q\nq q -> s")
        with pytest.raises(ProofError, match="does not divide"):
            derive_rwt(Hyp(F("p -> q")), Hyp(F("q q -> s")))

    def test_pro(self):
        theory = parse_theory("p -> q q r")
        tree = derive_pro(Hyp(F("p -> q q r")), M("q r"))
        self.assert_derives(tree, "p -> q r", theory)

    def test_pro_target_must_divide(self):
        theory = parse_theory("p -> q")
        with pytest.raises(ProofError, match="does not divide"):
            derive_pro(Hyp(F("p -> q")), M("q q"))

    def test_weak_additivity(self):
        theory = parse_theory("a -> b\na -> c c")
        tree = derive_weak_additivity(Hyp(F("a -> b")), Hyp(F("a -> c c")))
        self.assert_derives(tree, "a a -> b c c", theory)

    def test_weak_additivity_needs_same_antecedent(self):
        with pytest.raises(ProofError, match="antecedents differ"):
            derive_weak_additivity(derive_ref(M("a")), derive_ref(M("b")))

    def test_trees_use_only_primitive_nodes(self):
        theory = parse_theory("p -> q r\nr -> s s")
        trees = [
            derive_ref(M("a b")),
            derive_aug(Hyp(F("p -> q r")), M("x")),
            derive_rwt(Hyp(F("p -> q r")), Hyp(F("r -> s s"))),
            derive_pro(Hyp(F("p -> q r")), M("q")),
            derive_weak_additivity(Hyp(F("p -> q r")), Hyp(F("p -> q r"))),
        ]
        for tree in trees:
            for node in walk(tree):
                assert isinstance(node, (Hyp, AxInstance, Cut))


class TestSoundness:
    """Random derivations only ever conclude semantic consequences."""

    def test_random_derivations_hold_in_all_models(self, pomonoids_upto_3):
        rng = random.Random(41)
        names = ("p", "q", "r")

        def rand_multiset():
            pool = [v for v in names for _ in range(2)]
            take = rng.randint(0, 3)
            return AttributeMultiset(Counter(rng.sample(pool, take)))

        checked = 0
        for _ in range(12):
            formulas = tuple(
                Mfd(rand_multiset(), rand_multiset()) for _ in range(rng.randint(1, 3))
            )
            theory = Theory(formulas)
            pool = [Hyp(f) for f in formulas] + [derive_ref(rand_multiset())]
            for _ in range(25):
                kind = rng.choice(("tra", "aug", "rwt", "pro", "add"))
                try:
                    if kind == "tra":
                        tree = derive_tra(rng.choice(pool), rng.choice(pool))
                    elif kind == "aug":
                        tree = derive_aug(rng.choice(pool), rand_multiset())
                    elif kind == "rwt":
                        tree = derive_rwt(rng.choice(pool), rng.choice(pool))
                    elif kind == "pro":
                        tree = derive_pro(rng.choice(pool), rand_multiset())
                    else:
                        tree = derive_weak_additivity(rng.choice(pool), rng.choice(pool))
                except ProofError:
                    continue
                conclusion = check_proof(tree, theory)
                assert conclusion == tree.conclusion
                assert oracles.holds_in_all_models(theory, conclusion, pomonoids_upto_3), (
                    f"unsound: {format_mfd(conclusion)} from "
                    f"{[format_mfd(f) for f in formulas]}"
                )
                pool.append(tree)
                checked += 1
        assert checked > 100


# ============================================================
# Certificate text
# ============================================================


class TestCertificates:
    def test_format_golden(self):
        tree = Cut(
            Hyp(F("p -> q")),
            AxInstance(M("r"), M("q")),
            F("p r -> q"),
        )
        assert format_proof(tree) == '(cut (hyp "p -> q") (ax "r" "q") "p r -> q")'
        assert format_proof(derive_ref(M("a"))) == '(ax "1" "a")'

    @pytest.mark.parametrize(
        "text",
        [
            '(hyp "p -> q")',
            '(ax "1" "a a")',
            '(ax "a b" "c")',
            '(cut (hyp "p -> q") (ax "r" "q") "p r -> q")',
            '(cut (cut (hyp "p -> q") (hyp "q -> r") "p -> r") (ax "1" "r") "p -> r")',
        ],
    )
    def test_round_trip(self, text):
        tree = parse_proof(text)
        assert format_proof(tree) == text
        assert parse_proof(format_proof(tree)) == tree

    def test_round_trip_of_derived_tree(self):
        tree = derive_weak_additivity(Hyp(F("a -> b")), Hyp(F("a -> c")))
        assert parse_proof(format_proof(tree)) == tree

    def test_whitespace_is_flexible(self):
        tree = parse_proof('  ( hyp\n   "p -> q" )  ')
        assert tree == Hyp(F("p -> q"))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(",
            '(hyp "p -> q"',
            '(foo "x")',
            '(hyp "p -> q") extra',
            '(hyp "p -> q" "r -> s")',
            '(cut (hyp "p -> q") "p -> q")',
            "(hyp p -> q)",
            '[hyp "p -> q"]',
            '(ax "a")',
            '(hyp ")',
            '(hyp "p q") [',
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ProofParseError):
            parse_proof(text)

    def test_inner_formula_errors_surface(self):
        # structurally fine, but the quoted text is not an implication
        with pytest.raises(TheoryParseError):
            parse_proof('(hyp "p q")')
        with pytest.raises(TheoryParseError):
            parse_proof('(ax "p ->" "q")')

    def test_deep_certificate(self):
        # 5000 alternating rewrites nest 5000 cuts deep, far past the
        # interpreter's recursion limit
        theory = parse_theory("p -> q\nq -> p")
        steps = []
        for k in range(5000):
            old, new = ("p", "q") if k % 2 == 0 else ("q", "p")
            steps.append(RewriteStep(F(f"{old} -> {new}"), TOP, M(new)))
        tree = certificate_from_path(F("p -> p"), RewritePath(M("p"), tuple(steps)))
        assert check_proof(tree, theory) == F("p -> p")
        text = format_proof(tree)
        parsed = parse_proof(text)
        assert format_proof(parsed) == text
        assert parsed == tree
        assert check_proof(parsed, theory) == F("p -> p")

    def test_deep_verdicts_compare_hash_and_print(self):
        # the 1100-step counter nests 1100 cuts deep; a Cut's equality, hash
        # and repr must not recurse down the tree
        theory = parse_theory("a b -> b b")
        query = F(" ".join(["a"] * 1100 + ["b"]) + " -> " + " ".join(["b"] * 1101))
        v, w = decide(theory, query), decide(theory, query)
        assert v == w and v.certificate is not w.certificate
        assert hash(v.certificate) == hash(w.certificate)
        assert repr(v).startswith("Proved(") and repr(v) == repr(w)
        assert v.certificate != v.certificate.left

    def test_shallow_repr_is_the_dataclass_one(self):
        a, b = Hyp(F("p -> q")), AxInstance(M("p"), M("q"))
        cut = Cut(a, Cut(b, a, F("p q -> q")), F("p -> q"))
        assert repr(cut) == (
            f"Cut(left={a!r}, right=Cut(left={b!r}, right={a!r}, "
            f"conclusion={F('p q -> q')!r}), conclusion={F('p -> q')!r})"
        )
        assert cut == Cut(a, Cut(b, a, F("p q -> q")), F("p -> q"))
        assert cut != Cut(a, Cut(b, b, F("p q -> q")), F("p -> q"))
        assert cut != Cut(a, Cut(b, a, F("p q -> q")), F("p -> p"))
        assert cut != a and a != cut
