"""Weighted degree-lexicographic orders on words, and compatibility checks.

deglex compares weighted total degree first, then letter by letter using
the generator precedence.  It is a total semigroup order with the
descending chain condition: only finitely many words sit below any word.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .freealg import Alphabet, AlphabetMismatchError, Word

LT, EQ, GT = -1, 0, 1


class OrderingError(Exception):
    pass


@dataclass(frozen=True)
class OrderingSpec:
    """Generator precedence (increasing) over an alphabet; weights come from it."""

    alphabet: Alphabet
    precedence: tuple[str, ...]

    def __post_init__(self):
        if sorted(self.precedence) != sorted(self.alphabet.symbols):
            raise OrderingError("precedence must be a permutation of the alphabet")
        object.__setattr__(self, "_ranks", tuple(  # rank of each letter index
            self.precedence.index(s) for s in self.alphabet.symbols))

    def sort_key(self, word: Word):
        """Total-order key: ascending deglex."""
        if word.alphabet != self.alphabet:
            raise AlphabetMismatchError("word over a different alphabet")
        return self.letters_key(word.letters)

    def letters_key(self, letters: tuple[int, ...]):
        """sort_key of the word with these letter indices."""
        weights, ranks = self.alphabet.weights, self._ranks
        return (sum(weights[i] for i in letters), tuple(ranks[i] for i in letters))


def deglex_compare(u: Word, v: Word, spec: OrderingSpec) -> int:
    """-1, 0 or 1 as u <, =, > v under weighted deglex."""
    ku, kv = spec.sort_key(u), spec.sort_key(v)
    if ku < kv:
        return LT
    if ku > kv:
        return GT
    return EQ


class CompatibilityReport(namedtuple("CompatibilityReport", "compatible violations")):
    """Violations are (rule index, monomial of f_sigma not strictly below the lhs)."""

    __slots__ = ()


def check_compatibility(system, spec: OrderingSpec) -> CompatibilityReport:
    """Every monomial of every rule's right side must be strictly below its lhs."""
    violations = []
    for idx, rule in enumerate(system.rules):
        for z in rule.rhs.words():
            if deglex_compare(z, rule.lhs, spec) != LT:
                violations.append((idx, z))
    return CompatibilityReport(not violations, tuple(violations))
