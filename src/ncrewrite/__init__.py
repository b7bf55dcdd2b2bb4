"""Confluence checking and canonical forms for reduction systems on free
associative algebras, plus Newman's diamond lemma on finite graphs."""

from .ambiguity import (
    Ambiguity,
    AmbiguityVerdict,
    ConfluenceReport,
    ambiguities,
    check_all,
    check_resolvable,
    check_resolvable_relative,
    enumerate_inclusions,
    enumerate_overlaps,
    simplify_system,
)
from .arw import OrientedGraph, check_local_diamond, check_termination, newman_verdict
from .coeff import Coefficient, FieldDescriptor, RATIONALS
from .freealg import Alphabet, Occurrence, Polynomial, Word
from .order import CompatibilityReport, OrderingSpec, check_compatibility, deglex_compare
from .quotient import IndependenceVerdict, QuotientRing, independence_check
from .rewrite import (
    NormalFormResult,
    ReductionSystem,
    Rule,
    all_normal_forms,
    apply_reduction,
    is_irreducible,
    normal_form,
    validate_system,
)
from .syntax import format_polynomial, parse_polynomial, parse_word

__all__ = [name for name in dir() if not name.startswith("_")]
