"""The presented algebra on irreducible monomials.

For a confluent system the irreducible polynomials are canonical
representatives of the quotient by the two-sided ideal generated by the
rule differences, with multiplication "multiply, then fully reduce".
"""

from __future__ import annotations

from collections import namedtuple

from .ambiguity import check_all
from .freealg import Polynomial, Word
from .order import OrderingSpec
from .rewrite import ReductionSystem, _sites, is_irreducible, normal_form, require_compatible


class QuotientError(Exception):
    pass


class NotConfluentError(QuotientError):
    pass


class QuotientRing(namedtuple("QuotientRing", "system spec report")):
    """k<X>/(W - f) of a confluent system, its order and its ConfluenceReport."""

    __slots__ = ()

    @classmethod
    def build(cls, system: ReductionSystem, spec: OrderingSpec) -> "QuotientRing":
        require_compatible(system, spec)  # IncompatibleSystemError, as for normal_form
        report = check_all(system, spec)
        if not report.confluent:
            raise NotConfluentError("system is not confluent under this ordering")
        return cls(system, spec, report)

    def normal_form(self, a: Polynomial) -> Polynomial:
        return normal_form(a, self.system, self.spec).value

    def multiply(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """Ring product of canonical representatives."""
        if not is_irreducible(a, self.system) or not is_irreducible(b, self.system):
            raise QuotientError("ring elements must be irreducible representatives")
        return self.normal_form(a * b)

    def ideal_member(self, a: Polynomial) -> bool:
        return self.normal_form(a).is_zero()

    def basis_words(self, max_degree: int) -> list[Word]:
        """Irreducible monomials of weighted degree <= max_degree, in
        ascending deglex order."""
        left_sides = self.system._left_sides
        words = [w for w in self.system.alphabet.words_up_to_degree(max_degree)
                 if not any(_sites(w.letters, left_sides))]
        words.sort(key=self.spec.sort_key)
        return words


class IndependenceVerdict(namedtuple("IndependenceVerdict",
                                     "strict witness independent_rules")):
    """witness: index in S2 of a rule whose lhs S1 cannot reduce, or None;
    independent_rules is populated when S2 has no ambiguities."""

    __slots__ = ()


def independence_check(s1: ReductionSystem, s2: ReductionSystem,
                       spec: OrderingSpec) -> IndependenceVerdict:
    """Certify strict inclusion of the ideal of s1 in that of s2.

    Requires the rules of s1 to be a subset of those of s2, and s2 to pass
    QuotientRing.build: compatible and confluent.  The certificate is a
    rule of s2 whose left side is irreducible with respect to s1.  When s2
    has no ambiguities at all, no left side contains another, so every rule
    is irreducible with respect to the remaining rules and is reported as
    independent of them.
    """
    for rule in s1.rules:
        if rule not in s2.rules:
            raise QuotientError("rules of the subsystem must occur in the full system")
    report = QuotientRing.build(s2, spec).report

    witness = next((i for i, (lhs, _) in enumerate(s2._compiled)
                    if not any(_sites(lhs, s1._left_sides))), None)
    # a compatible report has one verdict per ambiguity
    independent = () if report.verdicts else tuple(range(len(s2.rules)))
    return IndependenceVerdict(witness is not None, witness, independent)
