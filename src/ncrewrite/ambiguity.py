"""Critical-pair analysis: ambiguities, resolvability, and the confluence verdict.

An overlap ambiguity is (sigma, tau, A, B, C) with W_sigma = AB and
W_tau = BC, all of A, B, C nonempty; an inclusion ambiguity has
W_sigma = B sitting inside W_tau = ABC with sigma != tau.  A system with
a compatible DCC order is confluent iff every ambiguity resolves, and
that in turn is equivalent to every branch difference lying in the span
of the B(W - f)C with BWC below the ambiguity word (resolvability relative
to the order, Bergman's condition (a')).  That "relative" check is decided
here by sparse elimination on raw values, in the manner of Faugere's F4:
each column B(W - f)C is a dict led by BWC, pivots are kept by leading
word, and the branch difference is reduced against them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import Coefficient
from .freealg import Polynomial, Word
from .order import CompatibilityReport, OrderingSpec
from .rewrite import ReductionSystem, _add_scaled, _sites, _terms, compatibility
from .rewrite import normal_form, require_compatible

OVERLAP = "overlap"
INCLUSION = "inclusion"


@dataclass(frozen=True)
class Ambiguity:
    kind: str  # OVERLAP or INCLUSION
    sigma: int
    tau: int
    a: Word
    b: Word
    c: Word

    @property
    def word(self) -> Word:
        """The conditioned word D = ABC on which the two rules compete."""
        return self.a * self.b * self.c


def enumerate_overlaps(system: ReductionSystem) -> list[Ambiguity]:
    """Every nonempty proper suffix of W_sigma equal to a nonempty proper
    prefix of W_tau, over all ordered pairs including sigma = tau."""
    out = []
    for s, rs in enumerate(system.rules):
        ws = rs.lhs.letters
        for t, rt in enumerate(system.rules):
            wt = rt.lhs.letters
            for blen in range(1, min(len(ws), len(wt))):
                if ws[len(ws) - blen:] == wt[:blen]:
                    alphabet = system.alphabet
                    out.append(Ambiguity(
                        OVERLAP, s, t,
                        Word(alphabet, ws[:len(ws) - blen]),
                        Word(alphabet, ws[len(ws) - blen:]),
                        Word(alphabet, wt[blen:])))
    return out


def enumerate_inclusions(system: ReductionSystem) -> list[Ambiguity]:
    """All occurrences of one rule's lhs inside another's, sigma != tau,
    ordered by sigma, then tau, then position.

    Equal left sides yield a single ambiguity per unordered pair (the
    mirrored tuple carries no extra information).
    """
    rules, alphabet = system._compiled, system.alphabet
    found = sorted((s, t, i) for t, (wt, _) in enumerate(rules)
                   for i, s in _sites(wt, rules)
                   if s != t and not (s > t and rules[s][0] == wt))
    return [Ambiguity(INCLUSION, s, t, Word(alphabet, rules[t][0][:i]),
                      system.rules[s].lhs,
                      Word(alphabet, rules[t][0][i + len(rules[s][0]):]))
            for s, t, i in found]


def ambiguities(system: ReductionSystem) -> list[Ambiguity]:
    """Every overlap ambiguity, then every inclusion ambiguity."""
    return enumerate_overlaps(system) + enumerate_inclusions(system)


@dataclass(frozen=True)
class AmbiguityVerdict:
    ambiguity: Ambiguity
    branch_left: Polynomial
    branch_right: Polynomial
    nf_left: Polynomial
    nf_right: Polynomial

    @property
    def resolvable(self) -> bool:
        return self.nf_left == self.nf_right


def _branches(amb: Ambiguity, system: ReductionSystem):
    f_sigma = system.rules[amb.sigma].rhs
    f_tau = system.rules[amb.tau].rhs
    one = Word(system.alphabet, ())
    if amb.kind == OVERLAP:
        return f_sigma.sandwich(one, amb.c), f_tau.sandwich(amb.a, one)
    return f_sigma.sandwich(amb.a, amb.c), f_tau.sandwich(one, one)


def check_resolvable(amb: Ambiguity, system: ReductionSystem,
                     spec: OrderingSpec) -> AmbiguityVerdict:
    """Reduce both one-step branches to normal form and compare exactly."""
    left, right = _branches(amb, system)
    return AmbiguityVerdict(
        amb, left, right,
        normal_form(left, system, spec).value,
        normal_form(right, system, spec).value)


@dataclass(frozen=True)
class CertificateTerm:
    prefix: Word
    rule: int
    suffix: Word
    coefficient: Coefficient


@dataclass(frozen=True)
class RelativeVerdict:
    resolvable: bool
    certificate: tuple[CertificateTerm, ...] | None

    def expand(self, system: ReductionSystem) -> Polynomial:
        """Re-expand the certificate combination of B(W_sigma - f_sigma)C."""
        total = Polynomial.zero(system.field, system.alphabet)
        for term in self.certificate:
            rule = system.rules[term.rule]
            diff = Polynomial.monomial(rule.lhs, system.field.one()) - rule.rhs
            total = total + diff.sandwich(term.prefix, term.suffix).scale(
                term.coefficient)
        return total


def _columns(d: tuple, system: ReductionSystem, spec: OrderingSpec):
    """Every (B, rule, C) with BWC < D and its column B(W - f)C.

    Columns are raw {key: value} dicts over the words' deglex keys
    (weighted degree, ranks), which order the words and identify them;
    BWC leads its column because the rule is compatible with spec.
    """
    key_d = spec.letters_key(d)
    one = system.field.one().value
    modulus = system.field.modulus
    rules = [(spec.letters_key(lhs),
              [(spec.letters_key(z), -v % modulus if modulus else -v) for z, v in rhs])
             for lhs, rhs in system._compiled]
    max_slack = max([key_d[0] - dw for (dw, _), _ in rules] + [0])
    by_degree = [[] for _ in range(max_slack + 1)]  # (letters, ranks) by degree
    for word in system.alphabet.words_up_to_degree(max_slack):
        degree, ranks = spec.letters_key(word.letters)
        by_degree[degree].append((word.letters, ranks))
    triples, columns = [], []
    for idx, ((dw, rw), rhs) in enumerate(rules):
        slack = key_d[0] - dw
        for db in range(slack + 1):
            for b, rb in by_degree[db]:
                for dc in range(slack - db + 1):
                    for c, rc in by_degree[dc]:
                        w = (db + dw + dc, rb + rw + rc)
                        if w >= key_d:
                            continue
                        col = {w: one}
                        for (dz, rz), v in rhs:
                            col[db + dz + dc, rb + rz + rc] = v
                        triples.append((b, idx, c))
                        columns.append(col)
    return triples, columns


def _in_span(columns: list[dict], target: dict, field) -> dict | None:
    """Coefficients x with sum x_j * columns[j] = target, or None if target
    is not in the span of the columns (which are reduced in place).

    Sparse elimination on {key: value} vectors whose largest key leads.
    Pivots map a leading key to a vector, the inverse of its leading
    coefficient, and the combination of columns the vector equals.  Pivot
    leads are distinct, so a vector lies in the pivots' span iff reducing
    its lead against them reaches zero.
    """
    modulus, one = field.modulus, field.one().value
    pivots = {}

    def reduce(vec, combo):  # vec - sum combo_j columns_j stays unchanged
        while vec:
            lead = max(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                return lead
            pvec, inv, pcombo = pivot
            factor = -vec[lead] * inv
            _add_scaled(vec, pvec, factor, modulus)
            _add_scaled(combo, pcombo, factor, modulus)
        return None

    for j, vec in enumerate(columns):
        combo = {j: one}
        lead = reduce(vec, combo)
        if lead is not None:
            c = vec[lead]
            inv = pow(c, -1, modulus) if modulus else one / c
            pivots[lead] = (vec, inv, combo)
    combo = {}
    if reduce(target, combo) is not None:
        return None
    return {j: -x % modulus if modulus else -x for j, x in combo.items()}


def check_resolvable_relative(amb: Ambiguity, system: ReductionSystem,
                              spec: OrderingSpec) -> RelativeVerdict:
    """Decide membership of the branch difference in the span of all
    B'(W - f)C' with B' W C' strictly below the ambiguity word (Bergman's
    resolvability relative to the order), by sparse elimination on raw
    values; a positive verdict carries the combination as certificate."""
    require_compatible(system, spec)
    left, right = _branches(amb, system)
    diff = _terms(left - right, system)
    if not diff:
        return RelativeVerdict(True, ())
    triples, columns = _columns(amb.word.letters, system, spec)
    solution = _in_span(columns, {spec.letters_key(w): v for w, v in diff.items()},
                        system.field)
    if solution is None:
        return RelativeVerdict(False, None)
    alphabet, field = system.alphabet, system.field
    return RelativeVerdict(True, tuple(
        CertificateTerm(Word(alphabet, triples[j][0]), triples[j][1],
                        Word(alphabet, triples[j][2]), field.coeff(x))
        for j, x in sorted(solution.items())))


@dataclass(frozen=True)
class ConfluenceReport:
    compatibility: CompatibilityReport
    verdicts: tuple[AmbiguityVerdict, ...]
    relative_agrees: bool | None = None  # set when the cross-check ran

    @property
    def compatible(self) -> bool:
        return self.compatibility.compatible

    @property
    def confluent(self) -> bool:
        return self.compatible and all(v.resolvable for v in self.verdicts)


def check_all(system: ReductionSystem, spec: OrderingSpec,
              cross_check: bool = False) -> ConfluenceReport:
    """Compatibility plus resolvability of every ambiguity.

    With cross_check=True the relative criterion is evaluated on every
    ambiguity as well and required to agree.
    """
    compat = compatibility(system, spec)
    if not compat.compatible:
        return ConfluenceReport(compat, ())
    verdicts = tuple(check_resolvable(amb, system, spec) for amb in ambiguities(system))
    agrees = None
    if cross_check:
        agrees = all(
            check_resolvable_relative(v.ambiguity, system, spec).resolvable
            == v.resolvable
            for v in verdicts)
    return ConfluenceReport(compat, verdicts, agrees)


def simplify_system(system: ReductionSystem) -> ReductionSystem:
    """Inclusion-free subsystem: drop rules whose lhs properly contains
    another rule's lhs, then keep only the first rule per left side."""
    rules = system._compiled
    kept, seen = [], set()
    for rule, (lhs, _) in zip(system.rules, rules):
        # a site of another left side inside lhs is proper unless it spans lhs
        if lhs in seen or any(len(rules[j][0]) < len(lhs) for _, j in _sites(lhs, rules)):
            continue
        seen.add(lhs)
        kept.append(rule)
    return ReductionSystem(system.alphabet, system.field, tuple(kept))
