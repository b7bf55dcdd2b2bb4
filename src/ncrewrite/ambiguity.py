"""Critical-pair analysis: ambiguities, resolvability, and the confluence verdict.

An overlap ambiguity is (sigma, tau, A, B, C) with W_sigma = AB and
W_tau = BC, all of A, B, C nonempty; an inclusion ambiguity has
W_sigma = B sitting inside W_tau = ABC with sigma != tau.  A system with
a compatible DCC order is confluent iff every ambiguity resolves, and
that in turn is equivalent to the branch difference lying in the span of
rule differences below the ambiguity word (the "relative" check, decided
here by exact linear algebra).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import Coefficient
from .freealg import Polynomial, Word
from .order import LT, CompatibilityReport, OrderingSpec, check_compatibility, deglex_compare
from .rewrite import ReductionSystem, normal_form, require_compatible

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
    """All occurrences of one rule's lhs inside another's, sigma != tau.

    Equal left sides yield a single ambiguity per unordered pair (the
    mirrored tuple carries no extra information).
    """
    out = []
    for s, rs in enumerate(system.rules):
        for t, rt in enumerate(system.rules):
            if s == t:
                continue
            if rs.lhs == rt.lhs and s > t:
                continue
            for prefix, suffix in rt.lhs.occurrences_of(rs.lhs):
                out.append(Ambiguity(INCLUSION, s, t, prefix, rs.lhs, suffix))
    return out


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


def _solve_exact(columns: list[Polynomial], target: Polynomial, field):
    """Solve sum x_j * columns[j] = target by Gaussian elimination; None if
    inconsistent."""
    words = set(target.words())
    for col in columns:
        words.update(col.words())
    rows = sorted(words, key=lambda w: (len(w), w.letters))
    index = {w: i for i, w in enumerate(rows)}
    zero = field.zero()
    matrix = [[zero] * len(columns) + [zero] for _ in rows]
    for j, col in enumerate(columns):
        for w, c in col.items():
            matrix[index[w]][j] = c
    for w, c in target.items():
        matrix[index[w]][len(columns)] = c
    pivots = []
    r = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][j]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = matrix[r][j].inv()
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][j]:
                factor = matrix[i][j]
                matrix[i] = [x - factor * y for x, y in zip(matrix[i], matrix[r])]
        pivots.append(j)
        r += 1
    for i in range(r, len(matrix)):
        if matrix[i][len(columns)]:
            return None
    solution = [zero] * len(columns)
    for i, j in enumerate(pivots):
        solution[j] = matrix[i][len(columns)]
    return solution


def check_resolvable_relative(amb: Ambiguity, system: ReductionSystem,
                              spec: OrderingSpec) -> RelativeVerdict:
    """Decide membership of the branch difference in the span of all
    B'(W - f)C' with B' W C' strictly below the ambiguity word."""
    require_compatible(system, spec)
    left, right = _branches(amb, system)
    diff = left - right
    if diff.is_zero():
        return RelativeVerdict(True, ())
    d = amb.word
    triples = []
    columns = []
    for idx, rule in enumerate(system.rules):
        slack = d.degree() - rule.lhs.degree()
        if slack < 0:
            continue
        gen = Polynomial.monomial(rule.lhs, system.field.one()) - rule.rhs
        for b in system.alphabet.words_up_to_degree(slack):
            for c in system.alphabet.words_up_to_degree(slack - b.degree()):
                if deglex_compare(b * rule.lhs * c, d, spec) != LT:
                    continue
                triples.append((b, idx, c))
                columns.append(gen.sandwich(b, c))
    solution = _solve_exact(columns, diff, system.field)
    if solution is None:
        return RelativeVerdict(False, None)
    certificate = tuple(
        CertificateTerm(b, idx, c, coeff)
        for (b, idx, c), coeff in zip(triples, solution) if coeff)
    return RelativeVerdict(True, certificate)


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
    compat = check_compatibility(system, spec)
    if not compat.compatible:
        return ConfluenceReport(compat, ())
    ambiguities = enumerate_overlaps(system) + enumerate_inclusions(system)
    verdicts = tuple(check_resolvable(amb, system, spec) for amb in ambiguities)
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
    lhss = [r.lhs for r in system.rules]
    kept = []
    for i, rule in enumerate(system.rules):
        if any(v != rule.lhs and rule.lhs.contains(v) for v in lhss):
            continue
        if any(k.lhs == rule.lhs for k in kept):
            continue
        kept.append(rule)
    return system.replace_rules(kept)
