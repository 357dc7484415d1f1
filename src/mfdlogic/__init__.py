"""Reasoning engine for monoidal functional dependencies.

Dependencies between multisets of attributes, graded over pomonoids:
parsing and algebra of formulas, proof trees, a budgeted prover/refuter
pair, a polynomial membership test for non-contracting theories, and
similarity-based semantics on ranked relations.
"""

from .formula import *
from .algebra import *
from .proofs import *
from .member import *
from .entail import *
from .relational import *

__version__ = "0.1.0"
