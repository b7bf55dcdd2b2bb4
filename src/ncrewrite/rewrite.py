"""Reduction machinery: single reductions, normal forms, and an exhaustive oracle.

A single reduction at site (A, sigma, B) subtracts
lambda * A * (W_sigma - f_sigma) * B, where lambda is the coefficient of
A * W_sigma * B in the polynomial.  Systems are validated on construction;
one kernel on raw {letters: value} dicts finds sites and applies the step
for apply_reduction, normal_form, is_irreducible and the oracle.  Under an
order compatible with the system, normal_form's strategy always terminates.
all_normal_forms ignores the order and explores every reduction sequence,
the ground truth for reduction-uniqueness at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .coeff import Coefficient, FieldDescriptor
from .freealg import Alphabet, FreeAlgebraError, Occurrence, Polynomial, Word
from .order import OrderingSpec, check_compatibility


class RewriteError(Exception):
    pass


class InvalidSystemError(RewriteError):
    pass


class IncompatibleSystemError(RewriteError):
    """Raised when normalization is requested without a compatible order."""


class BudgetExceededError(RewriteError):
    def __init__(self, visited: int):
        super().__init__(f"state budget exhausted after {visited} polynomials")
        self.visited = visited


DEFAULT_ORACLE_BUDGET = 10_000


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: Polynomial


@dataclass(frozen=True)
class ReductionSystem:
    """Rules W_sigma -> f_sigma over one alphabet and field; validated on construction."""

    alphabet: Alphabet
    field: FieldDescriptor
    rules: tuple[Rule, ...]

    def __post_init__(self):
        validate_system(self)
        object.__setattr__(self, "_compatible", set())  # specs require_compatible passed
        # the kernel's form of each rule: (lhs letters, ((letters, value), ...))
        object.__setattr__(self, "_compiled", tuple(
            (r.lhs.letters, tuple((w.letters, c.value) for w, c in r.rhs.items()))
            for r in self.rules))

    def replace_rules(self, rules) -> "ReductionSystem":
        return ReductionSystem(self.alphabet, self.field, tuple(rules))


def validate_system(system: ReductionSystem) -> None:
    """Raise InvalidSystemError on a rule over another alphabet or field or with lhs 1."""
    for i, rule in enumerate(system.rules):
        if (rule.lhs.alphabet, rule.rhs.alphabet, rule.rhs.field) != (
                system.alphabet, system.alphabet, system.field):
            raise InvalidSystemError(f"rule {i} over another alphabet or field")
        if rule.lhs.is_one():
            raise InvalidSystemError(f"rule {i} has an empty left side")


def require_compatible(system: ReductionSystem, spec: OrderingSpec) -> None:
    """Raise IncompatibleSystemError unless every rule decreases under spec;
    a pass is remembered on the system, so each order is checked once."""
    if spec in system._compatible:
        return
    report = check_compatibility(system, spec)
    if not report.compatible:
        raise IncompatibleSystemError(
            f"system not compatible with the ordering: {report.violations}")
    system._compatible.add(spec)


def _terms(a: Polynomial, system: ReductionSystem) -> dict:
    if (a.alphabet, a.field) != (system.alphabet, system.field):
        raise FreeAlgebraError("polynomial over another alphabet or field than the system")
    return {w.letters: c.value for w, c in a.items()}


def _polynomial(terms: dict, system: ReductionSystem) -> Polynomial:
    field, alphabet = system.field, system.alphabet
    return Polynomial(field, alphabet, {Word(alphabet, w): Coefficient(field, c)
                                        for w, c in terms.items()})


def _sites(word: tuple, rules):
    """Sites (len(A), rule index) in word: leftmost first, then lowest rule index."""
    for i in range(len(word)):
        for idx, (lhs, _) in enumerate(rules):
            if word[i:i + len(lhs)] == lhs:
                yield i, idx


def _reduce(terms: dict, system: ReductionSystem, word: tuple, i: int, idx: int):
    """terms -= lambda * A (W - f) B in place at site (i, idx) of word = A W B;
    returns lambda = terms[word] and the words A z B (z in f) added to terms."""
    lhs, rhs = system._compiled[idx]
    modulus = system.field.modulus
    lam = terms.pop(word)
    prefix, suffix = word[:i], word[i + len(lhs):]
    added = []
    for z, c in rhs:
        t = prefix + z + suffix
        if t not in terms:
            added.append(t)
        v = terms.get(t, 0) + lam * c
        if modulus:
            v %= modulus
        if v:
            terms[t] = v
        else:
            del terms[t]
    return lam, added


def apply_reduction(a: Polynomial, system: ReductionSystem, occ: Occurrence) -> Polynomial:
    """a - lambda * A (W_sigma - f_sigma) B; the identity when lambda = 0."""
    target = (occ.prefix * system.rules[occ.rule].lhs * occ.suffix).letters
    terms = _terms(a, system)
    if target not in terms:
        return a
    _reduce(terms, system, target, len(occ.prefix), occ.rule)
    return _polynomial(terms, system)


def is_irreducible(a: Polynomial, system: ReductionSystem) -> bool:
    return all(next(_sites(w, system._compiled), None) is None for w in _terms(a, system))


@dataclass(frozen=True)
class ReductionStep:
    occurrence: Occurrence
    coefficient: Coefficient  # the lambda removed; nonzero by construction


@dataclass(frozen=True)
class NormalFormResult:
    value: Polynomial
    trace: tuple[ReductionStep, ...]


def normal_form(a: Polynomial, system: ReductionSystem,
                spec: OrderingSpec) -> NormalFormResult:
    """Deterministic full reduction.

    Strategy: reduce the deglex-largest reducible monomial, at its leftmost
    site, with the lowest-indexed rule there.  A compatible order puts every
    reduct below the monomial it replaces, so monomials come from a heap,
    largest first.  Refuses systems the order is not compatible with, since
    termination is then unguaranteed.
    """
    def descending(word):
        # negated ranks sort in reverse: no word prefixes another of equal degree
        degree, ranks = spec.letters_key(word)
        return -degree, tuple(-r for r in ranks), word

    require_compatible(system, spec)
    terms = _terms(a, system)
    rules = system._compiled
    heap = [descending(w) for w in terms]
    heapify(heap)
    trace = []
    while heap:
        word = heappop(heap)[2]
        site = next(_sites(word, rules), None) if word in terms else None
        if site is None:
            continue
        i, idx = site
        lam, added = _reduce(terms, system, word, i, idx)
        trace.append(ReductionStep(Occurrence(
            Word(system.alphabet, word[:i]), idx,
            Word(system.alphabet, word[i + len(rules[idx][0]):])),
            Coefficient(system.field, lam)))
        for t in added:
            heappush(heap, descending(t))
    return NormalFormResult(_polynomial(terms, system), tuple(trace))


def all_normal_forms(a: Polynomial, system: ReductionSystem,
                     budget: int = DEFAULT_ORACLE_BUDGET) -> set[Polynomial]:
    """Every irreducible polynomial reachable from a by any reduction sequence.

    Memoizes on visited polynomials; raises BudgetExceededError when more
    than ``budget`` distinct states would be visited.
    """
    rules = system._compiled
    start = _terms(a, system)
    seen = {frozenset(start.items())}
    stack = [start]
    normals = []
    while stack:
        state = stack.pop()
        successors = []
        for word in state:
            for i, idx in _sites(word, rules):
                new = dict(state)
                _reduce(new, system, word, i, idx)
                successors.append(new)
        if not successors:
            normals.append(state)
            continue
        for q in successors:
            key = frozenset(q.items())
            if key not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(len(seen))
                seen.add(key)
                stack.append(q)
    return {_polynomial(state, system) for state in normals}


def format_trace(trace) -> str:
    """One line per step: ``A | rule-index | B | lambda``."""
    return "\n".join(
        f"{step.occurrence.prefix} | {step.occurrence.rule} | "
        f"{step.occurrence.suffix} | {step.coefficient}"
        for step in trace)
