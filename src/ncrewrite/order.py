"""Weighted degree-lexicographic orders on words, and compatibility checks.

deglex compares weighted total degree first, then letter by letter using
the generator precedence.  It is a total semigroup order with the
descending chain condition: only finitely many words sit below any word.
"""

from __future__ import annotations

from collections import namedtuple

from .coeff import Value, _set
from .freealg import Alphabet, AlphabetMismatchError, Word


class OrderingError(Exception):
    pass


class OrderingSpec(Value):
    """Generator precedence (increasing) over an alphabet; weights come from it."""

    _fields = ("alphabet", "precedence")
    __slots__ = (*_fields, "_ranks")

    def __init__(self, alphabet: Alphabet, precedence: tuple[str, ...]):
        precedence = tuple(precedence)
        if sorted(precedence) != sorted(alphabet.symbols):
            raise OrderingError("precedence must be a permutation of the alphabet")
        _set(self, "alphabet", alphabet)
        _set(self, "precedence", precedence)
        _set(self, "_ranks", tuple(map(precedence.index, alphabet.symbols)))  # of each letter

    def sort_key(self, word: Word):
        """Total-order key: ascending deglex."""
        if word.alphabet != self.alphabet:
            raise AlphabetMismatchError("word over a different alphabet")
        return self.letters_key(word.letters)

    def letters_key(self, letters: tuple[int, ...]):
        """sort_key of the word with these letter indices."""
        weights, ranks = self.alphabet.weights, self._ranks
        return (sum(weights[i] for i in letters), tuple(ranks[i] for i in letters))


class CompatibilityReport(namedtuple("CompatibilityReport", "compatible violations")):
    """Violations are (rule index, monomial of f_sigma not strictly below the lhs)."""

    __slots__ = ()


def check_compatibility(system, spec: OrderingSpec) -> CompatibilityReport:
    """Every monomial of every rule's right side must be strictly below its
    lhs; AlphabetMismatchError for an order over another alphabet."""
    if spec.alphabet != system.alphabet:
        raise AlphabetMismatchError("order over another alphabet than the system")
    key, violations = spec.letters_key, []
    for idx, (lhs, rhs) in enumerate(system._compiled):
        top = key(lhs)
        violations += [(idx, Word(system.alphabet, z)) for z, _ in rhs if not key(z) < top]
    return CompatibilityReport(not violations, tuple(violations))


def format_violations(report: CompatibilityReport) -> str:
    """``rule i monomial z`` for each violation, comma-separated."""
    return ", ".join(f"rule {i} monomial {z}" for i, z in report.violations)
