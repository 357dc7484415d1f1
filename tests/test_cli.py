"""Command line behavior: outputs, exit codes, JSON round trips."""

import contextlib
import hashlib
import json
import math
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from mfdlogic import cli, formula, proofs
from mfdlogic import (
    AttributeMultiset,
    Budgets,
    Mfd,
    Proved,
    Refuted,
    Theory,
    Unknown,
    algebra_from_json,
    algebra_to_json,
    check_invariant,
    check_proof,
    decide,
    format_mfd,
    format_proof,
    is_model,
    parse_mfd,
    parse_theory,
    satisfies,
    validate,
)
from mfdlogic.cli import (
    EXIT_PRECONDITION,
    EXIT_PROVED,
    EXIT_REFUTED,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    main,
    verdict_from_json,
    verdict_to_json,
)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def chain_theory(tmp_path):
    path = tmp_path / "chain.theory"
    path.write_text("a -> a b\nb -> b c\n")
    return str(path)


def theory_path(data_dir, name):
    return str(data_dir / name)


# ============================================================
# decide
# ============================================================


class TestDecide:
    def test_proved(self, run, data_dir):
        code, out, err = run(
            "decide", theory_path(data_dir, "no_additivity.theory"), "p p -> q r"
        )
        assert code == EXIT_PROVED
        assert out.startswith("proved: p p -> q r\n")
        assert "path (2 steps):" in out
        assert "certificate: (cut" in out
        assert err == ""

    def test_refuted(self, run, data_dir):
        code, out, _ = run(
            "decide", theory_path(data_dir, "no_additivity.theory"), "p -> q r"
        )
        assert code == EXIT_REFUTED
        assert out.startswith("refuted: p -> q r\n")
        assert "countermodel (3 elements):" in out
        assert "evaluation: p=e1, q=e1, r=e1" in out

    def test_unknown_with_tiny_budgets(self, run, data_dir):
        code, out, _ = run(
            "decide",
            theory_path(data_dir, "no_additivity.theory"),
            "p -> q r",
            "--budget-bfs", "3",
            "--budget-models", "3",
            "--max-size", "2",
        )
        assert code == EXIT_UNKNOWN
        assert out.startswith("unknown: p -> q r\n")
        assert "searched 3 proof nodes (rewrite graph exhausted)" in out
        assert "swept 3 evaluations over 2 algebras" in out

    def test_refuted_by_saturation(self, run, chain_theory):
        code, out, _ = run("decide", chain_theory, "b -> a")
        assert code == EXIT_REFUTED
        assert out == "refuted: b -> a\nby the saturation procedure (theory is non-contracting)\n"

    def test_refuted_by_invariant(self, run, data_dir):
        # the only refuting algebra has five elements; past size 4 the
        # coverability basis shows p -> q unprovable instead
        code, out, _ = run(
            "decide", theory_path(data_dir, "needs_nonlinear.theory"), "p -> q",
            "--max-size", "4",
        )
        assert code == EXIT_REFUTED
        assert out == (
            "refuted: p -> q\n"
            "invariant (8 elements; every multiset that rewrites to contain the "
            "consequent contains one, the antecedent none):\n"
            "  p p\n  p u\n  p v\n  p x\n  p y\n  q\n  u y\n  v x\n"
        )

    def test_json_invariant_round_trip(self, run, data_dir):
        theory_file = theory_path(data_dir, "needs_nonlinear.theory")
        code, out, _ = run("decide", theory_file, "p -> q", "--max-size", "4", "--json")
        assert code == EXIT_REFUTED
        doc = json.loads(out)
        assert doc == {
            "verdict": "refuted",
            "query": "p -> q",
            "method": "invariant",
            "invariant": ["p p", "p u", "p v", "p x", "p y", "q", "u y", "v x"],
        }
        verdict = verdict_from_json(doc)
        theory = parse_theory((data_dir / "needs_nonlinear.theory").read_text())
        assert verdict == decide(theory, parse_mfd("p -> q"), Budgets(max_algebra_size=4))
        check_invariant(verdict.invariant, theory, verdict.query)
        assert verdict_to_json(verdict) == doc

    def test_json_proved_round_trip(self, run, data_dir):
        theory_file = theory_path(data_dir, "needs_nonlinear.theory")
        code, out, _ = run("decide", theory_file, "p p -> q q", "--json")
        assert code == EXIT_PROVED
        doc = json.loads(out)
        assert doc["verdict"] == "proved"
        assert doc["query"] == "p p -> q q"
        assert len(doc["path"]["steps"]) == 4
        assert set(doc["path"]["steps"][0]) == {"rule", "remainder", "result"}
        verdict = verdict_from_json(doc)
        assert isinstance(verdict, Proved)
        theory = parse_theory((data_dir / "needs_nonlinear.theory").read_text())
        assert check_proof(verdict.certificate, theory) == parse_mfd("p p -> q q")

    def test_json_refuted_round_trip(self, run, data_dir):
        code, out, _ = run(
            "decide", theory_path(data_dir, "no_additivity.theory"), "p -> q r", "--json"
        )
        assert code == EXIT_REFUTED
        doc = json.loads(out)
        assert doc["verdict"] == "refuted"
        assert doc["method"] == "countermodel"
        verdict = verdict_from_json(doc)
        assert isinstance(verdict, Refuted)
        theory = parse_theory("p -> q\np -> r")
        assert is_model(verdict.evaluation, theory)
        assert not satisfies(verdict.evaluation, parse_mfd("p -> q r"))

    def test_json_rejects_what_is_no_verdict(self):
        with pytest.raises(TypeError, match="not a verdict: 'proved'"):
            verdict_to_json("proved")
        with pytest.raises(ValueError, match="unknown verdict kind 'maybe'"):
            verdict_from_json({"verdict": "maybe", "query": "p -> q"})

    def test_json_unknown_budget_report(self, run, data_dir):
        code, out, _ = run(
            "decide",
            theory_path(data_dir, "no_additivity.theory"),
            "p -> q r",
            "--budget-bfs", "3",
            "--budget-models", "3",
            "--max-size", "2",
            "--json",
        )
        assert code == EXIT_UNKNOWN
        doc = json.loads(out)
        assert doc["budget"] == {
            "bfs_nodes_used": 3,
            "bfs_exhausted": True,
            "model_evals_used": 3,
            "algebras_scanned": 2,
            "models_exhausted": False,
        }
        verdict = verdict_from_json(doc)
        assert isinstance(verdict, Unknown)
        assert verdict_to_json(verdict) == doc

    def test_growth_chain_with_tiny_bfs_budget(self, run, tmp_path, growth_chain):
        # non-contracting: proved from the saturation run, the budget is unused
        theory = tmp_path / "growth.theory"
        theory.write_text(growth_chain)
        code, out, _ = run("decide", str(theory), "g0 -> g40", "--budget-bfs", "10", "--json")
        assert code == EXIT_PROVED
        doc = json.loads(out)
        assert len(doc["path"]["steps"]) == 40
        certificate = verdict_from_json(doc).certificate
        assert check_proof(certificate, parse_theory(growth_chain)) == parse_mfd("g0 -> g40")

    def test_counter_past_the_recursion_limit(self, run, tmp_path):
        # a 1100-step rewrite line; its certificate nests 1100 cuts deep
        theory = tmp_path / "counter.theory"
        theory.write_text("a b -> b b\n")
        query = " ".join(["a"] * 1100 + ["b"]) + " -> " + " ".join(["b"] * 1101)
        code, out, _ = run("decide", str(theory), query, "--json")
        assert code == EXIT_PROVED
        assert len(json.loads(out)["path"]["steps"]) == 1100


# ============================================================
# member
# ============================================================


class TestMember:
    def test_true(self, run, chain_theory):
        code, out, _ = run("member", chain_theory, "a -> c")
        assert code == EXIT_PROVED
        assert out == "member: true\n"

    def test_false(self, run, chain_theory):
        code, out, _ = run("member", chain_theory, "a -> q")
        assert code == EXIT_REFUTED
        assert out == "member: false\n"

    def test_trace(self, run, chain_theory):
        code, out, _ = run("member", chain_theory, "a -> c", "--trace")
        assert code == EXIT_PROVED
        assert out == (
            "member: true\n"
            "marker attribute: _y0\n"
            "pass 1: _y0 a b c   [fired: a -> a b, b -> b c, c -> _y0 c]\n"
            "counter left: 2\n"
        )

    def test_json(self, run, chain_theory):
        code, out, _ = run("member", chain_theory, "a -> q", "--json")
        assert code == EXIT_REFUTED
        doc = json.loads(out)
        assert doc["member"] is False
        assert doc["query"] == "a -> q"
        assert doc["fresh_var"] == "_y0"
        assert doc["counter_final"] == 0
        assert len(doc["passes"]) == 3
        assert set(doc["passes"][0]) == {"snapshot", "fired"}

    def test_contracting_theory_fails_precondition(self, run, data_dir):
        code, out, err = run(
            "member", theory_path(data_dir, "no_additivity.theory"), "p -> q"
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err.startswith("precondition failed:")
        assert "p -> q" in err


# ============================================================
# check
# ============================================================


class TestCheck:
    def test_models_yes(self, run, data_dir):
        code, out, _ = run(
            "check",
            str(data_dir / "housing.json"),
            theory_path(data_dir, "housing_fd.theory"),
        )
        assert code == EXIT_PROVED
        assert out == "models: yes\n"

    def test_models_no_with_degrees(self, run, data_dir):
        code, out, _ = run(
            "check",
            str(data_dir / "housing.json"),
            theory_path(data_dir, "price_to_loc.theory"),
        )
        assert code == EXIT_REFUTED
        assert out == (
            "models: no\n"
            "violation: price -> loc at tuples (0, 1): 0.8521 <= 0.7524 fails\n"
        )

    def test_vectors_whose_squares_overflow(self, run, tmp_path):
        # (2e200)**2 is beyond float range, the distance 2e200 is not
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({
            "algebra": "product", "scheme": ["a"], "tuples": [[[1e200, 0]], [[-1e200, 0]]],
            "similarity": {"a": {"kind": "exp_euclidean", "c": 200}},
        }))
        theory = tmp_path / "a.theory"
        theory.write_text("a -> a a\n")
        code, out, _ = run("check", str(rel), str(theory), "--json")
        degree = math.exp(-(10.0 ** -200) * 2e200)
        assert code == EXIT_REFUTED
        assert json.loads(out)["violation"] == {
            "formula": "a -> a a", "pair": [0, 1],
            "antecedent_degree": degree, "consequent_degree": degree * degree,
        }

    def test_extended_relation_violates(self, run, data_dir):
        code, out, _ = run(
            "check",
            str(data_dir / "housing_extra.json"),
            theory_path(data_dir, "housing_fd.theory"),
        )
        assert code == EXIT_REFUTED
        assert "at tuples (1, 4):" in out

    def test_weakened_fd_passes(self, run, data_dir):
        code, out, _ = run(
            "check",
            str(data_dir / "housing_extra.json"),
            theory_path(data_dir, "housing_fd_weak.theory"),
        )
        assert code == EXIT_PROVED

    def test_json_violation(self, run, data_dir):
        code, out, _ = run(
            "check",
            str(data_dir / "housing.json"),
            theory_path(data_dir, "price_to_loc.theory"),
            "--json",
        )
        assert code == EXIT_REFUTED
        doc = json.loads(out)
        assert doc["models"] is False
        assert doc["violation"]["pair"] == [0, 1]
        assert doc["violation"]["formula"] == "price -> loc"
        assert doc["violation"]["antecedent_degree"] == pytest.approx(0.8521, abs=5e-5)

    @pytest.mark.parametrize("as_json", [False, True])
    def test_finite_degrees_print_as_names(self, run, tmp_path, as_json):
        # the chain 0 < h < 1: degrees are element indices inside, names outside
        rel = tmp_path / "chain.json"
        rel.write_text(json.dumps({
            "algebra": {
                "elements": ["0", "h", "1"], "unit": "1",
                "leq": [[True, True, True], [False, True, True], [False, False, True]],
                "times": [["0", "0", "0"], ["0", "0", "h"], ["0", "h", "1"]],
            },
            "scheme": ["x", "y"],
            "similarity": {
                "x": {"kind": "equality", "bottom": "0"},
                "y": {"kind": "table", "labels": ["u", "v"], "values": [["1", "h"], ["h", "1"]]},
            },
            "tuples": [["t", "u"], ["t", "v"]],
        }))
        theory = tmp_path / "xy.theory"
        theory.write_text("x -> y\n")
        code, out, _ = run("check", str(rel), str(theory), *(["--json"] if as_json else []))
        assert code == EXIT_REFUTED
        if as_json:
            violation = json.loads(out)["violation"]
            assert violation["pair"] == [0, 1]
            assert (violation["antecedent_degree"], violation["consequent_degree"]) == ("1", "h")
        else:
            assert out == "models: no\nviolation: x -> y at tuples (0, 1): 1 <= h fails\n"

    def test_seed_flag_accepted(self, run, data_dir):
        # --seed only seeded a t-norm self-test that is gone; it is a usage error now
        code, out, err = run(
            "check",
            str(data_dir / "housing.json"),
            theory_path(data_dir, "housing_fd.theory"),
            "--seed", "7",
        )
        assert code == EXIT_USAGE
        assert "--seed" in err and out == ""

    def test_scheme_mismatch(self, run, data_dir, tmp_path):
        bad = tmp_path / "bad.theory"
        bad.write_text("price -> rooms\n")
        code, out, err = run("check", str(data_dir / "housing.json"), str(bad))
        assert code == EXIT_PRECONDITION
        assert err.startswith("precondition failed:")


# ============================================================
# countermodel
# ============================================================


class TestCountermodel:
    def test_found(self, run, data_dir):
        code, out, _ = run(
            "countermodel",
            theory_path(data_dir, "no_additivity.theory"),
            "p -> q r",
            "--max-size", "3",
        )
        assert code == EXIT_REFUTED
        assert out.startswith("refuted: p -> q r\n")
        assert "countermodel (3 elements):" in out

    def test_not_found(self, run, data_dir):
        code, out, _ = run(
            "countermodel",
            theory_path(data_dir, "no_additivity.theory"),
            "p p -> q r",
            "--max-size", "3",
        )
        assert code == EXIT_UNKNOWN
        assert out == "no countermodel found up to size 3 within budget\n"

    def test_not_found_json(self, run, data_dir):
        code, out, _ = run(
            "countermodel",
            theory_path(data_dir, "no_additivity.theory"),
            "p p -> q r",
            "--max-size", "3",
            "--json",
        )
        assert code == EXIT_UNKNOWN
        assert json.loads(out) == {"verdict": "unknown", "query": "p p -> q r"}

    def test_found_json_revalidates(self, run, data_dir):
        code, out, _ = run(
            "countermodel",
            theory_path(data_dir, "needs_nonlinear.theory"),
            "p -> q",
            "--json",
        )
        assert code == EXIT_REFUTED
        doc = json.loads(out)
        assert len(doc["algebra"]["elements"]) == 5
        verdict = verdict_from_json(doc)
        theory = parse_theory((data_dir / "needs_nonlinear.theory").read_text())
        assert is_model(verdict.evaluation, theory)
        assert not satisfies(verdict.evaluation, parse_mfd("p -> q"))


# ============================================================
# classify and boolify
# ============================================================


class TestClassify:
    def test_human(self, run, data_dir):
        code, out, _ = run("classify", theory_path(data_dir, "no_additivity.theory"))
        assert code == EXIT_PROVED
        assert out == (
            "p -> q   [contracting]\n"
            "p -> r   [contracting]\n"
            "theory: contracting\n"
        )

    def test_trivial_tag(self, run, tmp_path):
        mixed = tmp_path / "mixed.theory"
        mixed.write_text("a -> a b\na a -> a\np -> p\n")
        code, out, _ = run("classify", str(mixed))
        assert code == EXIT_PROVED
        assert out == (
            "a -> a b   [non-contracting]\n"
            "a a -> a   [trivial, contracting]\n"
            "p -> p   [trivial, non-contracting]\n"
            "theory: contracting\n"
        )

    def test_json(self, run, chain_theory, tmp_path):
        mixed = tmp_path / "mixed.theory"
        mixed.write_text("a -> a b\na a -> a\n")
        code, out, _ = run("classify", str(mixed), "--json")
        assert code == EXIT_PROVED
        doc = json.loads(out)
        assert doc["formulas"] == [
            {"formula": "a -> a b", "trivial": False, "non_contracting": True},
            {"formula": "a a -> a", "trivial": True, "non_contracting": False},
        ]
        assert doc["theory_non_contracting"] is False


class TestBoolify:
    def test_plain(self, run, data_dir):
        code, out, _ = run("boolify", theory_path(data_dir, "no_additivity.theory"))
        assert code == EXIT_PROVED
        assert out == "p -> q\np -> r\np -> p p\nq -> q q\nr -> r r\n"

    def test_extra_vars(self, run, data_dir):
        code, out, _ = run(
            "boolify",
            theory_path(data_dir, "no_additivity.theory"),
            "--extra-vars", "z, w",
        )
        assert code == EXIT_PROVED
        assert out == (
            "p -> q\np -> r\np -> p p\nq -> q q\nr -> r r\nw -> w w\nz -> z z\n"
        )

    def test_json(self, run, data_dir):
        code, out, _ = run(
            "boolify", theory_path(data_dir, "no_additivity.theory"), "--json"
        )
        doc = json.loads(out)
        assert doc["formulas"][2:] == ["p -> p p", "q -> q q", "r -> r r"]

    @pytest.mark.parametrize("name", ["x y", "1", "top", "_y0", "x-y", "9a"])
    def test_extra_vars_must_be_attribute_names(self, run, data_dir, name):
        # each would print a law that reparses differently or not at all
        code, out, err = run(
            "boolify", theory_path(data_dir, "no_additivity.theory"),
            "--extra-vars", f"z,{name}",
        )
        assert code == EXIT_USAGE
        assert out == "" and err


# ============================================================
# complete-algebra
# ============================================================


class TestCompleteAlgebra:
    def test_bool2_human(self, run):
        code, out, _ = run("complete-algebra", "bool2")
        assert code == EXIT_PROVED
        assert "elements: {} {0} {0,1}   unit: {0,1}" in out
        assert out.rstrip().endswith("embedding: 0 -> {0}, 1 -> {0,1}")

    def test_nonlinear_json(self, run, data_dir):
        code, out, _ = run(
            "complete-algebra", str(data_dir / "nonlinear_pomonoid.json"), "--json"
        )
        assert code == EXIT_PROVED
        doc = json.loads(out)
        assert len(doc["lattice"]["elements"]) == 7
        lattice = algebra_from_json(doc["lattice"])
        assert validate(lattice) == []
        assert doc["embedding"]["1"] == "{0,a,b,c,1}"

    def test_over_the_cap_exits_64(self, run, tmp_path, wide_flat_algebra):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(algebra_to_json(wide_flat_algebra)))
        start = time.process_time()
        code, out, err = run("complete-algebra", str(path))
        assert time.process_time() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "downsets" in err

    def test_string_arrays_exit_64(self, run, tmp_path):
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({"elements": "01", "unit": "1",
                                    "leq": [[True, True], [False, True]], "times": ["00", "01"]}))
        code, out, err = run("complete-algebra", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: malformed algebra description: elements must be an array\n"

    def test_rejects_unit_interval(self, run):
        code, out, err = run("complete-algebra", "product")
        assert code == EXIT_USAGE
        assert err.startswith("error:")


# ============================================================
# Streamed --json output
# ============================================================


class _HashingSink:
    """A stdout that keeps only a digest and a length of what it is given."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.length = 0

    def write(self, text):
        self.digest.update(text.encode())
        self.length += len(text)
        return len(text)

    def flush(self):
        pass


class TestStreamedJson:
    """``--json`` documents are streamed to stdout, byte for byte what
    ``json.dumps(doc, indent=2)`` and a newline would print."""

    LIMITS = ("--budget-models", "20000", "--max-size", "3")

    # long proofs: a ~300-step counter, a chain among distractor rules on
    # 40 attributes, and a non-contracting growth chain (member's path)
    LONG_PROOFS = {
        "counter": ("a b -> b b\n", " ".join(["a"] * 300 + ["b"]) + " -> b" + " b" * 300),
        "wide": ("".join(f"w{k} -> w{k + 1}\n" for k in range(15))
                 + "".join(f"w{16 + k} w{16 + (k + 1) % 24} -> w{16 + (k + 2) % 24}\n"
                           for k in range(24)), "w0 -> w15"),
        "growth": ("".join(f"g{k} -> g{k} g{k + 1}\ng{k} -> g{k} s{k % 6}\n" for k in range(40)),
                   "g0 -> g40"),
    }

    def commands(self, data_dir, tmp_path):
        for name, (text, query) in self.LONG_PROOFS.items():
            path = tmp_path / f"{name}.theory"
            path.write_text(text)
            yield ("decide", str(path), query, "--budget-bfs", "2000", *self.LIMITS)
        for path in sorted(data_dir.glob("*.theory")):
            theory = parse_theory(path.read_text())
            for f in theory.distinct_formulas():
                for query in (format_mfd(f), format_mfd(Mfd(f.consequent, f.antecedent))):
                    yield ("decide", str(path), query, "--budget-bfs", "2000", *self.LIMITS)
                    yield ("countermodel", str(path), query, *self.LIMITS)
                    yield ("member", str(path), query)
            yield ("classify", str(path))
            yield ("boolify", str(path), "--extra-vars", "z")
            yield ("check", str(data_dir / "housing.json"), str(path))
        for algebra in ("bool2", str(data_dir / "nonlinear_pomonoid.json")):
            yield ("complete-algebra", algebra)

    def test_bytes_equal_json_dumps(self, run, data_dir, tmp_path):
        printed = 0
        long_steps = []
        for argv in self.commands(data_dir, tmp_path):
            code, out, _ = run(*argv, "--json")
            if not out:  # refused before any output, e.g. member on a contracting theory
                continue
            printed += 1
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
            if argv[0] == "decide":
                theory = parse_theory(pathlib.Path(argv[1]).read_text())
                verdict = decide(theory, parse_mfd(argv[2]), Budgets(2000, 20000, 3))
                assert out == json.dumps(verdict_to_json(verdict), indent=2) + "\n", argv
                if isinstance(verdict, Proved):
                    assert verdict_from_json(json.loads(out)) == verdict, argv
                if pathlib.Path(argv[1]).parent == tmp_path:
                    assert code == EXIT_PROVED, argv
                    long_steps.append(len(verdict.path))
        assert printed >= 40, printed
        assert long_steps == [300, 15, 40], long_steps

    def test_names_that_json_escapes(self, capsys):
        # a quote, a backslash, a control character, non-ASCII text and a
        # name beyond the BMP (a surrogate pair in JSON), some of them repeated
        q, b, c, u, s = 'q"1', "b\\2", "c\x013", "\u00fc\u00f1\u00ef", "\U0001d538"
        runs = [(q, 2), (b, 3), (c, 1), (u, 2), (s, 1)]
        theory = Theory([Mfd(AttributeMultiset({q: 1, b: 1}), AttributeMultiset({b: 2, u: 1})),
                         Mfd(AttributeMultiset({u: 1}), AttributeMultiset({s: 1, c: 1}))])
        query = Mfd(AttributeMultiset(runs[:2]), AttributeMultiset({b: 3, s: 2, c: 1}))
        verdict = decide(theory, query)
        assert isinstance(verdict, Proved) and len(verdict.path) >= 3
        text = json.dumps(verdict_to_json(verdict), indent=2) + "\n"
        assert all(json.dumps(name)[1:-1] in text for name, _ in runs)
        cli._write_proved_json(verdict, sys.stdout.write)
        assert capsys.readouterr().out == text
        doc = json.loads(text)
        assert (doc["query"], doc["certificate"]) == (format_mfd(query),
                                                      format_proof(verdict.certificate))
        assert [s["result"] for s in doc["path"]["steps"]] == [
            formula.format_multiset(s.result) for s in verdict.path.steps]

    # the proved layout, pinned apart from the one writer that makes it: a
    # 2-step path and an empty one
    PINNED = {
        "p p -> q r": r"""{
  "verdict": "proved",
  "query": "p p -> q r",
  "path": {
    "start": "p p",
    "steps": [
      {
        "rule": "p -> q",
        "remainder": "p",
        "result": "p q"
      },
      {
        "rule": "p -> r",
        "remainder": "q",
        "result": "q r"
      }
    ]
  },
  "certificate": "(cut (cut (cut (ax \"1\" \"p p\") (cut (hyp \"p -> q\") (ax \"1\" \"p q\") \"p p -> p q\") \"p p -> p q\") (cut (hyp \"p -> r\") (ax \"1\" \"q r\") \"p q -> q r\") \"p p -> q r\") (ax \"1\" \"q r\") \"p p -> q r\")"
}
""",
        "p q -> p": r"""{
  "verdict": "proved",
  "query": "p q -> p",
  "path": {
    "start": "p q",
    "steps": []
  },
  "certificate": "(cut (ax \"1\" \"p q\") (ax \"q\" \"p\") \"p q -> p\")"
}
""",
    }

    @pytest.mark.parametrize("query", sorted(PINNED))
    def test_proved_document_is_pinned(self, run, data_dir, query):
        theory = data_dir / "no_additivity.theory"
        code, out, _ = run("decide", str(theory), query, "--json")
        assert (code, out) == (EXIT_PROVED, self.PINNED[query])
        verdict = decide(parse_theory(theory.read_text()), parse_mfd(query))
        assert verdict_to_json(verdict) == json.loads(out)
        assert verdict_from_json(json.loads(out)) == verdict

    def test_long_certificate_is_not_held_whole(self, tmp_path):
        n = 800
        theory = tmp_path / "counter.theory"
        theory.write_text("a b -> b b\n")
        query = " ".join(["a"] * n + ["b"]) + " -> " + " ".join(["b"] * (n + 1))
        sink = _HashingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["decide", str(theory), query, "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_PROVED
        verdict = decide(parse_theory(theory.read_text()), parse_mfd(query))
        text = json.dumps(verdict_to_json(verdict), indent=2) + "\n"
        assert (sink.length, sink.digest.hexdigest()) == (
            len(text), hashlib.sha256(text.encode()).hexdigest())
        assert verdict_from_json(json.loads(text)) == verdict
        # a 9.1 MB document: about 2.2 MiB streamed, 29.4 MB printed from json.dumps
        assert peak < 2.5 * 2**20, peak


class TestLongMultiplicityText:
    """The ``--json`` document of an n-step counter proof spells every
    multiplicity by repetition, n**2 tokens in all; its bytes are pinned."""

    @pytest.mark.parametrize("n,length,digest", [
        (150, 341723, "25202f8c9f40488226b4791023775ae3eda491f5f54feee52423010a4907c018"),
        (800, 9101773, "108d5ed867555352eeec7178088193aa1aaceed685afa952281f502b7d1b998d"),
    ])
    def test_counter_document_is_pinned(self, tmp_path, n, length, digest):
        theory = tmp_path / "counter.theory"
        theory.write_text("a b -> b b\n")
        query = " ".join(["a"] * n + ["b"]) + " -> " + " ".join(["b"] * (n + 1))
        sink = _HashingSink()
        with contextlib.redirect_stdout(sink):
            code = main(["decide", str(theory), query, "--json"])
        assert code == EXIT_PROVED
        assert (sink.length, sink.digest.hexdigest()) == (length, digest)


class TestStreamedText:
    """Text-mode ``mfd decide`` writes a proved verdict's certificate piece
    by piece: its bytes are ``format_proof``'s, which is never called."""

    @pytest.mark.parametrize("n,length,digest,bound", [
        (300, 1110691, "6e71ae89a68f5252eca66da00115db13f1e8bf9e33dccd7211911988ea698a97", 1.25),
        (800, 7761691, "e294d858c6469ec4fdaf25bafba7817e3763f0699a98ed5f04c4e9bf6a2805c4", 2.5),
    ], ids=["n300", "n800"])
    def test_counter_certificate_is_streamed(self, tmp_path, n, length, digest, bound):
        theory = tmp_path / "counter.theory"
        theory.write_text("a b -> b b\n")
        query = " ".join(["a"] * n + ["b"]) + " -> " + " ".join(["b"] * (n + 1))
        sink = _HashingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["decide", str(theory), query])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_PROVED
        assert (sink.length, sink.digest.hexdigest()) == (length, digest)
        # printed whole, the certificate peaked at 2.6 MiB (n = 300) and 14.4 MiB (800)
        assert peak < bound * 2**20, peak

    def test_certificate_line_is_format_proof(self, run, tmp_path):
        theory = tmp_path / "counter.theory"
        theory.write_text("a b -> b b\n")
        query = " ".join(["a"] * 300 + ["b"]) + " -> " + " ".join(["b"] * 301)
        code, out, _ = run("decide", str(theory), query)
        assert code == EXIT_PROVED
        verdict = decide(parse_theory(theory.read_text()), parse_mfd(query))
        *head, line, tail = out.split("\n")
        assert (line, tail) == ("certificate: " + format_proof(verdict.certificate), "")
        assert len(head) == 3 + len(verdict.path) == 303


class TestValueKeyedTexts:
    """The certificate writers keep multiset texts by value: a verdict whose
    path and certificate share no objects prints the same bytes."""

    def rebuilt(self, n):
        theory = parse_theory("a b -> b b\n")
        query = parse_mfd(" ".join(["a"] * n + ["b"]) + " -> " + " ".join(["b"] * (n + 1)))
        verdict = verdict_from_json(verdict_to_json(decide(theory, query)))
        assert isinstance(verdict, Proved) and len(verdict.path) == n
        return verdict

    def test_json_writer(self, capsys):
        verdict = self.rebuilt(120)
        cli._write_proved_json(verdict, sys.stdout.write)
        assert capsys.readouterr().out == json.dumps(verdict_to_json(verdict), indent=2) + "\n"

    def test_text_writer(self, capsys):
        verdict = self.rebuilt(120)
        assert cli._print_verdict(verdict, as_json=False) == EXIT_PROVED
        lines = capsys.readouterr().out.split("\n")
        certificate = [line for line in lines if line.startswith("certificate: ")]
        assert certificate == ["certificate: " + format_proof(verdict.certificate)]

    def test_texts_are_found_again_by_value(self):
        # the same certificate with every multiset an object of its own
        def copy(m):
            return AttributeMultiset(dict(m.items()))

        def fresh(node):
            if isinstance(node, proofs.Hyp):
                return proofs.Hyp(Mfd(copy(node.formula.antecedent), copy(node.formula.consequent)))
            if isinstance(node, proofs.AxInstance):
                return proofs.AxInstance(copy(node.left), copy(node.right))
            f = node.conclusion
            return proofs.Cut(fresh(node.left), fresh(node.right),
                              Mfd(copy(f.antecedent), copy(f.consequent)))

        def spelled(tree):
            asked = []

            def text(m):
                asked.append(m)
                return formula.format_multiset(m)

            pieces = []
            proofs._write_proof(tree, pieces.append, text, '"')
            assert "".join(pieces) == format_proof(tree)
            return len(asked)

        tree = self.rebuilt(20).certificate
        copied = fresh(tree)
        assert copied == tree
        named = 2 * len(re.findall(r"\((?:hyp|ax|cut)", format_proof(tree)))
        assert spelled(copied) == spelled(tree) < named / 2


# ============================================================
# Errors and the module entry point
# ============================================================


class TestErrors:
    def test_unknown_subcommand(self, run):
        code, _, err = run("frobnicate")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_missing_argument(self, run):
        code, _, err = run("decide")
        assert code == EXIT_USAGE

    def test_query_parse_error(self, run, data_dir):
        code, _, err = run(
            "decide", theory_path(data_dir, "no_additivity.theory"), "p -> ->"
        )
        assert code == EXIT_USAGE
        assert err.startswith("parse error:")
        assert "column 6" in err

    def test_theory_file_missing(self, run, tmp_path):
        code, _, err = run("decide", str(tmp_path / "absent.theory"), "p -> q")
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_theory_is_a_directory(self, run, tmp_path):
        # exit code 1 would read as refuted
        code, out, err = run("decide", str(tmp_path), "p -> q")
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    def test_theory_is_not_utf8(self, run, tmp_path):
        theory = tmp_path / "bad.theory"
        theory.write_bytes(b"\xff\xfe")
        code, out, err = run("decide", str(theory), "p -> q")
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("command", ["member", "decide"])
    @pytest.mark.parametrize("query", ["p p p -> q", "p p p p -> q"])
    def test_multiplicity_past_the_cap(self, run, tmp_path, monkeypatch, command, query):
        # p p p grows past the cap under p -> p p, and p p p p does not
        # parse; a traceback exits 1, which would read as refuted
        monkeypatch.setattr(formula, "MULTIPLICITY_CAP", 3)
        theory = tmp_path / "grow.theory"
        theory.write_text("p -> p p\n")
        code, out, err = run(command, str(theory), query)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    def test_relation_is_a_directory(self, run, tmp_path, data_dir):
        code, out, err = run(
            "check", str(tmp_path), theory_path(data_dir, "housing_fd.theory")
        )
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    def test_invalid_relation_json(self, run, tmp_path, data_dir):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(
            "check", str(bad), theory_path(data_dir, "housing_fd.theory")
        )
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "similarity,tuples",
        [
            ({"kind": "table", "labels": ["u", "v"], "values": [[1, 0.5], [0.5, 1]]},
             [["u"], ["w"]]),
            ({"kind": "exp_euclidean", "c": 1}, [[[1, 2]], [[1, 2, 3]]]),
            ({"kind": "exp_euclidean", "c": 1}, [[1], [[1, 2]]]),
            # the distance overflows, though each difference is within range
            ({"kind": "exp_euclidean", "c": 1}, [[[1.5e308, 1.5e308]], [[0, 0]]]),
            # the distance overflows and 10^-400 underflows: the degree was NaN
            ({"kind": "exp_euclidean", "c": 400}, [[1e308], [-1e308]]),
        ],
    )
    def test_values_the_similarity_cannot_compare(self, run, tmp_path, similarity, tuples):
        # exit code 1 would read as a violation
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({
            "algebra": "product", "scheme": ["a"], "similarity": {"a": similarity},
            "tuples": tuples,
        }))
        theory = tmp_path / "a.theory"
        theory.write_text("a -> a a\n")
        code, out, err = run("check", str(rel), str(theory))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    def test_table_given_as_strings(self, run, tmp_path):
        # "uv" used to load as the labels u and v, and "10" as a row
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({
            "algebra": "bool2", "scheme": ["a"],
            "similarity": {"a": {"kind": "table", "labels": "uv", "values": ["10", "01"]}},
            "tuples": [["u"], ["v"]],
        }))
        theory = tmp_path / "a.theory"
        theory.write_text("a -> a a\n")
        code, out, err = run("check", str(rel), str(theory))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("domain,value,message", [
        ("token", 5, "attribute 'a' expects a token, got 5"),
        ("vectorx", [1, 2], "unknown domain 'vectorx'"),
    ])
    def test_bad_domain(self, run, tmp_path, domain, value, message):
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({
            "algebra": "product", "scheme": ["a"], "domains": {"a": domain},
            "similarity": {"a": {"kind": "equality", "bottom": 0.5}}, "tuples": [[value]],
        }))
        theory = tmp_path / "a.theory"
        theory.write_text("a -> a a\n")
        code, out, err = run("check", str(rel), str(theory))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["decide", "countermodel"])
    @pytest.mark.parametrize("size", ["0", "7"])
    def test_max_size_out_of_range(self, run, data_dir, command, size):
        # exit code 1 would read as refuted
        code, out, err = run(
            command, theory_path(data_dir, "no_additivity.theory"), "p -> q r",
            "--max-size", size,
        )
        assert code == EXIT_USAGE
        assert "--max-size" in err and out == ""

    @pytest.mark.parametrize(
        "command,option",
        [("decide", "--budget-bfs"), ("decide", "--budget-models"),
         ("countermodel", "--budget-models")],
    )
    def test_negative_budget(self, run, data_dir, command, option):
        # a negative budget used to answer Unknown after searching nothing
        code, out, err = run(
            command, theory_path(data_dir, "no_additivity.theory"), "p -> q r",
            option, "-3",
        )
        assert code == EXIT_USAGE
        assert option in err and out == ""

    def test_zero_budgets_are_valid(self, run, data_dir):
        code, out, _ = run(
            "decide", theory_path(data_dir, "no_additivity.theory"), "p -> q r",
            "--budget-bfs", "0", "--budget-models", "0",
        )
        assert code == EXIT_UNKNOWN
        assert "searched 0 proof nodes" in out

    def test_zero_budgets_still_prove_an_axiom_instance(self, run, data_dir):
        # p q -> q needs no rewrite step, so no search budget either
        code, out, _ = run(
            "decide", theory_path(data_dir, "no_additivity.theory"), "p q -> q",
            "--budget-bfs", "0", "--budget-models", "0",
        )
        assert code == EXIT_PROVED
        assert out.startswith("proved: p q -> q\npath (0 steps):\n")

    def test_invalid_algebra_json(self, run, tmp_path):
        bad = tmp_path / "alg.json"
        bad.write_text(json.dumps({"elements": ["a"], "leq": [[True]]}))
        code, _, err = run("complete-algebra", str(bad))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "changes",
        [
            {"algebra": "foo"},
            {"similarity": {"a": {"c": 1}}},
            {"similarity": {"a": {"kind": "exp_euclidean"}}},
            {"similarity": {"a": {"kind": "exp_euclidean", "c": "x"}}},
            {"algebra": "bool2", "similarity": {"a": {"kind": "equality"}}},
            {"algebra": "bool2", "similarity": {"a": {"kind": "equality", "bottom": "zz"}}},
            {"algebra": "bool2", "similarity": {"a": {"kind": "equality", "bottom": 7}}},
            {"algebra": "bool2", "similarity": {"a": {"kind": "equality", "bottom": True}}},
            {"similarity": {"a": {"kind": "equality", "bottom": "zz"}}},
            {"similarity": {"a": {"kind": "equality", "bottom": 2.5}}},
            {"similarity": ["x"]},
            # an inline algebra whose arrays are strings, bool2 if read letter by letter
            {"algebra": {"elements": "01", "unit": "1", "leq": [[True, True], [False, True]],
                         "times": ["00", "01"]},
             "similarity": {"a": {"kind": "equality", "bottom": "0"}}},
            {"algebra": "bool2", "similarity": {"a": {
                "kind": "table", "labels": [1, 2], "values": [["1", "zz"], ["0", "1"]]}}},
            None,
        ],
    )
    def test_malformed_documents(self, run, tmp_path, changes):
        # exit code 1 would read as a violation
        doc = tmp_path / "doc.json"
        if changes is None:
            doc.write_text("{broken")
            argv = ("complete-algebra", str(doc))
        else:
            doc.write_text(json.dumps({
                "algebra": "product", "scheme": ["a"],
                "similarity": {"a": {"kind": "exp_euclidean", "c": 1}},
                "tuples": [[1], [2]], **changes,
            }))
            theory = tmp_path / "a.theory"
            theory.write_text("a -> a a\n")
            argv = ("check", str(doc), str(theory))
        code, out, err = run(*argv)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    EXP = '{"kind": "exp_euclidean", "c": 1}'
    EQ = '{"kind": "equality", "bottom": 0}'

    @pytest.mark.parametrize("similarity,tuples,message", [
        # NaN == NaN fails, so equality reads NaN as unlike itself
        (EQ, "[[NaN, 1], [2, 1]]", "not finite"),
        (EXP, "[[NaN, 1], [2, 1]]", "not finite"),
        # json reads 1e400 as inf, and inf - inf is NaN
        (EXP, "[[1e400, 1], [2, 1]]", "not finite"),
        ('{"kind": "exp_euclidean", "c": "nan"}', "[[1, 1], [2, 1]]",
         "exp_euclidean c must be an int or a float, got 'nan'"),
        ('{"kind": "exp_euclidean", "c": -400}', "[[1, 1], [2, 1]]", "not finite"),
        (EXP, f"[[{10**400}, 1], [2, 1]]", "within float range"),
        ('{"kind": "table", "labels": ["x"], "values": [[1]]}', '[[{"x": 1}, 1], ["x", 1]]',
         "not in the similarity table"),
    ], ids=["nan-equality", "nan-exp", "1e400-exp", "c-nan", "c-overflow", "huge-int-exp",
            "object-in-table"])
    def test_values_no_similarity_can_compare(self, run, tmp_path, similarity, tuples, message):
        # exit code 1 would read as a violation, a traceback as a crash
        doc = tmp_path / "doc.json"
        doc.write_text(
            '{"algebra": "product", "scheme": ["a", "b"], '
            f'"similarity": {{"a": {similarity}, "b": {self.EXP}}}, "tuples": {tuples}}}'
        )
        theory = tmp_path / "ba.theory"
        theory.write_text("b -> a\n")
        code, out, err = run("check", str(doc), str(theory))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and message in err and out == ""


    @pytest.mark.parametrize("c", ['"1"', "true"])
    def test_exp_euclidean_c_is_a_number(self, run, tmp_path, c):
        # float() read both as 1.0, and the relation was checked
        doc = tmp_path / "doc.json"
        doc.write_text('{"algebra": "product", "scheme": ["a"], "tuples": [[1], [2]], '
                       f'"similarity": {{"a": {{"kind": "exp_euclidean", "c": {c}}}}}}}')
        theory = tmp_path / "a.theory"
        theory.write_text("a -> a a\n")
        code, out, err = run("check", str(doc), str(theory))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "c must be an int or a float" in err and out == ""

    @pytest.mark.parametrize("bad", [2.5, "-3", "0.5"])
    def test_table_degree_out_of_range(self, run, tmp_path, bad):
        # exit code 0 or 1 would read as a checked relation
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({
            "algebra": "product", "scheme": ["a"],
            "similarity": {"a": {"kind": "table", "labels": ["x", "y"],
                                 "values": [[1, bad], [0.5, 1]]}},
            "tuples": [["x"], ["y"]],
        }))
        theory = tmp_path / "a.theory"
        theory.write_text("a -> a a\n")
        code, out, err = run("check", str(doc), str(theory))
        assert code == EXIT_USAGE
        assert err == f"error: table value {bad!r} is not a degree in [0, 1]\n" and out == ""


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        theory = tmp_path / "chain.theory"
        theory.write_text("a -> a b\nb -> b c\n")
        result = subprocess.run(
            [sys.executable, "-m", "mfdlogic.cli", "member", str(theory), "a -> c"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_PROVED
        assert result.stdout == "member: true\n"
