"""Proof trees over the two-rule calculus for graded dependencies.

The calculus has one axiom scheme and one inference rule:

* axiom: ``A B -> B`` for any multisets A and B (more evidence implies less),
* cut: from ``A -> B`` and ``B C -> D`` conclude ``A C -> D``.

Everything else (transitivity, augmentation, reflexivity, rewriting of a
part of the consequent, projection, weak additivity) arises by composing
these two, and the constructors below build exactly those compositions, so
every tree they return bottoms out in hypotheses, axiom instances and cuts.

Cut nodes store their conclusion; :func:`check_proof` re-derives every
conclusion and refuses trees whose stored formulas do not match, whose cuts
do not divide, or whose hypotheses are not in the ambient theory.
Certificates serialize as s-expressions with formulas in the theory grammar.

An unprovable query is certified by an inductive invariant instead: a
finite basis whose upward closure holds the consequent, not the antecedent,
and every multiset that one rule application takes into it.
:func:`check_invariant` checks those three facts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple, Union

from .formula import (
    TOP,
    AttributeMultiset,
    Mfd,
    Theory,
    divides,
    format_mfd,
    format_multiset,
    parse_mfd,
    parse_multiset,
)

__all__ = [
    "ProofError",
    "ProofParseError",
    "Hyp",
    "AxInstance",
    "Cut",
    "ProofTree",
    "check_proof",
    "check_invariant",
    "derive_ref",
    "derive_tra",
    "derive_aug",
    "derive_rwt",
    "derive_pro",
    "derive_weak_additivity",
    "format_proof",
    "parse_proof",
]


class ProofError(ValueError):
    """A proof tree failed verification."""


class ProofParseError(ValueError):
    """Malformed certificate text."""


@dataclass(frozen=True)
class Hyp:
    """Appeal to a theory formula."""

    formula: Mfd

    @property
    def conclusion(self) -> Mfd:
        return self.formula


@dataclass(frozen=True)
class AxInstance:
    """The axiom A B -> B, stored as the pair (A, B)."""

    left: AttributeMultiset
    right: AttributeMultiset

    @property
    def conclusion(self) -> Mfd:
        return Mfd(self.left.union(self.right), self.right)


@dataclass(frozen=True, eq=False, repr=False)
class Cut:
    """A cut of two subproofs; the conclusion is stored and re-verified.

    Equality is structural and ``repr`` is the one a dataclass would
    generate, but these and ``hash`` walk an explicit stack, so cut trees of
    any depth work.
    """

    left: "ProofTree"
    right: "ProofTree"
    conclusion: Mfd

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if not isinstance(a, Cut) or a.__class__ is not b.__class__:
                if a != b:
                    return False
            elif a.conclusion != b.conclusion:
                return False
            else:
                stack += [(a.right, b.right), (a.left, b.left)]
        return True

    def __hash__(self) -> int:
        # children first, as in check_proof; a cut child enters by its hash
        hashes = {}
        stack = [(self, False)]
        while stack:
            node, children_done = stack.pop()
            if id(node) in hashes:
                continue
            if not children_done:
                stack.append((node, True))
                stack += [(c, False) for c in (node.left, node.right) if isinstance(c, Cut)]
            else:
                parts = [hashes[id(c)] if isinstance(c, Cut) else c for c in (node.left, node.right)]
                hashes[id(node)] = hash((*parts, node.conclusion))
        return hashes[id(self)]

    def __repr__(self) -> str:
        # (text, None) is literal text, (None, node) a node still to print
        pieces = []
        stack = [(None, self)]
        while stack:
            text, node = stack.pop()
            if node is None:
                pieces.append(text)
            elif isinstance(node, Cut):
                stack += [(f", conclusion={node.conclusion!r})", None), (None, node.right),
                          (", right=", None), (None, node.left),
                          (f"{node.__class__.__qualname__}(left=", None)]
            else:
                pieces.append(repr(node))
        return "".join(pieces)


ProofTree = Union[Hyp, AxInstance, Cut]


def check_proof(tree: ProofTree, theory: Theory) -> Mfd:
    """Verify a tree bottom-up and return its conclusion.

    Raises :class:`ProofError` when a hypothesis is not a theory formula,
    when the premises of a cut do not compose, or when a stored conclusion
    disagrees with the one the rule actually yields.  Nodes are visited
    children first, left before right, so a cut only reads conclusions that
    are already verified.  A subproof shared by several cuts is verified
    once, so the time grows with the distinct nodes, not the unfolded tree.
    """
    verified = set()  # ids of the nodes checked so far
    stack = [(tree, False)]
    while stack:
        node, premises_done = stack.pop()
        if id(node) in verified:
            continue
        if isinstance(node, Cut) and not premises_done:
            stack += [(node, True), (node.right, False), (node.left, False)]
            continue
        if isinstance(node, Cut):
            left, right = node.left.conclusion, node.right.conclusion
            c = divides(left.consequent, right.antecedent)
            if c is None:
                raise ProofError(
                    "cut premises do not compose: "
                    f"{format_mfd(left)} with {format_mfd(right)}"
                )
            expected = Mfd(left.antecedent.union(c), right.consequent)
            if expected != node.conclusion:
                raise ProofError(
                    f"cut conclusion mismatch: stored {format_mfd(node.conclusion)}, "
                    f"derived {format_mfd(expected)}"
                )
        elif isinstance(node, Hyp):
            if node.formula not in theory.formulas:
                raise ProofError(f"hypothesis not in theory: {format_mfd(node.formula)}")
        elif not isinstance(node, AxInstance):
            raise ProofError(f"not a proof node: {node!r}")
        verified.add(id(node))
    return tree.conclusion


def check_invariant(invariant: Tuple[AttributeMultiset, ...], theory: Theory, query: Mfd) -> None:
    """Verify that ``invariant`` shows the query unprovable from the theory.

    Let U be the multisets that contain some element of the invariant.  U
    must hold the consequent B, must not hold the antecedent A, and must
    hold E (e - F), with the difference cut off at 0, for every element e
    and theory formula E -> F: the least multiset that E -> F rewrites into
    one containing e.  Then every multiset that rewrites into U is in U, so
    no rewrite path leads from A to a multiset containing B, and by the
    completeness of rewriting A -> B is not provable.  Raises
    :class:`ProofError` naming the first fact that fails.
    """

    def covered(w: AttributeMultiset) -> bool:
        return any(w.contains_multiset(e) for e in invariant)

    if not covered(query.consequent):
        raise ProofError(f"invariant misses the consequent {format_multiset(query.consequent)}")
    if covered(query.antecedent):
        raise ProofError(f"invariant holds the antecedent {format_multiset(query.antecedent)}")
    for e in invariant:
        for f in theory.distinct_formulas():
            rest = AttributeMultiset(
                (name, mult - f.consequent[name]) for name, mult in e.items()
                if mult > f.consequent[name])
            before = f.antecedent.union(rest)
            if not covered(before):
                raise ProofError(
                    f"invariant not closed: {format_mfd(f)} rewrites "
                    f"{format_multiset(before)} to contain {format_multiset(e)}"
                )


# =====================================================================
# Derived rules, expanded into axiom instances and cuts
# =====================================================================


def derive_ref(a: AttributeMultiset) -> ProofTree:
    """A -> A, an axiom instance with empty left part."""
    return AxInstance(TOP, a)


def derive_tra(p1: ProofTree, p2: ProofTree) -> ProofTree:
    """From A -> B and B -> C conclude A -> C (cut with empty remainder)."""
    f1, f2 = p1.conclusion, p2.conclusion
    if f1.consequent != f2.antecedent:
        raise ProofError(
            f"transitivity mismatch: {format_mfd(f1)} then {format_mfd(f2)}"
        )
    return Cut(p1, p2, Mfd(f1.antecedent, f2.consequent))


def derive_aug(p1: ProofTree, c: AttributeMultiset) -> ProofTree:
    """From A -> B conclude A C -> B C."""
    f1 = p1.conclusion
    bc = f1.consequent.union(c)
    return Cut(p1, AxInstance(TOP, bc), Mfd(f1.antecedent.union(c), bc))


def derive_rwt(p1: ProofTree, p2: ProofTree) -> ProofTree:
    """Rewrite inside a consequent: from A -> B C and C -> D get A -> B D.

    The part C is the antecedent of the second premise and must divide the
    first premise's consequent.
    """
    f1, f2 = p1.conclusion, p2.conclusion
    b = divides(f2.antecedent, f1.consequent)
    if b is None:
        raise ProofError(
            f"rewrite part {format_multiset(f2.antecedent)} does not divide "
            f"consequent {format_multiset(f1.consequent)}"
        )
    return derive_tra(p1, derive_aug(p2, b))


def derive_pro(p1: ProofTree, b: AttributeMultiset) -> ProofTree:
    """Project a consequent: from A -> B C conclude A -> B."""
    f1 = p1.conclusion
    c = divides(b, f1.consequent)
    if c is None:
        raise ProofError(
            f"projection target {format_multiset(b)} does not divide "
            f"consequent {format_multiset(f1.consequent)}"
        )
    return derive_tra(p1, AxInstance(c, b))


def derive_weak_additivity(p1: ProofTree, p2: ProofTree) -> ProofTree:
    """From A -> B and A -> C conclude A A -> B C.

    Additivity with a single A on the left fails in general; doubling the
    antecedent is what the calculus actually grants.
    """
    f1, f2 = p1.conclusion, p2.conclusion
    if f1.antecedent != f2.antecedent:
        raise ProofError(
            f"antecedents differ: {format_mfd(f1)} and {format_mfd(f2)}"
        )
    a = f1.antecedent
    inner = derive_aug(p1, f2.consequent)
    return Cut(p2, inner, Mfd(a.union(a), inner.conclusion.consequent))


# =====================================================================
# Certificate text: s-expressions
# =====================================================================
#
#   proof := (hyp "<mfd>") | (ax "<multiset>" "<multiset>")
#          | (cut <proof> <proof> "<mfd>")
#
# Formulas and multisets use the theory grammar; the empty multiset prints
# as "1".


def format_proof(tree: ProofTree) -> str:
    # stack entries are (text, None) for a literal piece, (None, node) for a node
    pieces = []
    stack = [(None, tree)]
    while stack:
        text, node = stack.pop()
        if text is not None:
            pieces.append(text)
        elif isinstance(node, Hyp):
            pieces.append(f'(hyp "{format_mfd(node.formula)}")')
        elif isinstance(node, AxInstance):
            pieces.append(f'(ax "{format_multiset(node.left)}" "{format_multiset(node.right)}")')
        elif isinstance(node, Cut):
            pieces.append("(cut ")
            stack += [
                (f' "{format_mfd(node.conclusion)}")', None),
                (None, node.right),
                (" ", None),
                (None, node.left),
            ]
        else:
            raise ProofError(f"not a proof node: {node!r}")
    return "".join(pieces)


_TOKEN_RE = re.compile(r'\(\s*([a-z]*)|"([^"]*)"|\)|[a-z]+')

# Per node kind: its constructor, then the tokens that follow the kind:
# "(" opens a subproof, a parser reads a quoted string, ")" closes the node.
_NODE_ARGS = {
    "hyp": (Hyp, parse_mfd, ")"),
    "ax": (AxInstance, parse_multiset, parse_multiset, ")"),
    "cut": (Cut, "(", "(", parse_mfd, ")"),
}


def parse_proof(text: str) -> ProofTree:
    """Parse an s-expression certificate."""
    # characters outside tokens are reported before any error in a formula
    stray = re.search(r'[^()a-z\s]', re.sub(r'"[^"]*"', " ", text))
    if stray:
        raise ProofParseError(f"unexpected character {stray.group()!r}")
    stack = []  # open nodes: [kind, arguments parsed so far...]
    done = []  # the tree, once the outermost node is closed
    for match in _TOKEN_RE.finditer(text):
        kind, quoted = match.groups()
        if stack:
            spec = _NODE_ARGS[stack[-1][0]]
            want = spec[len(stack[-1])]
        else:
            want = "end of input" if done else "("
        if kind is not None and want == "(":
            if kind not in _NODE_ARGS:
                raise ProofParseError(f"unknown proof node kind {kind!r}")
            stack.append([kind])
        elif match.group() == want == ")":
            tree = spec[0](*stack.pop()[1:])
            (stack[-1] if stack else done).append(tree)
        elif quoted is not None and callable(want):
            stack[-1].append(want(quoted))
        else:
            expected = want if isinstance(want, str) else "quoted string"
            raise ProofParseError(f"expected {expected}, got {match.group()}")
    if not done:
        raise ProofParseError("unexpected end of input")
    return done[0]
