import pathlib

import pytest

from ncrewrite.cli import Presentation, parse_presentation
from ncrewrite.freealg import Word

PRESENTATIONS = pathlib.Path(__file__).resolve().parent.parent / "presentations"


def load(name: str) -> Presentation:
    return parse_presentation((PRESENTATIONS / name).read_text())


# Naive reference matcher: slices the word at every position.  ncrewrite
# finds left sides only with rewrite._sites; tests compare it, and what is
# built on it, with these.

class EmptyPatternError(ValueError):
    pass


def occurrences_of(word: Word, pattern: Word) -> list[tuple[Word, Word]]:
    """All (A, B) with word = A * pattern * B, by increasing len(A)."""
    if pattern.is_one():
        raise EmptyPatternError("empty pattern")
    n, m = len(word.letters), len(pattern.letters)
    return [(Word(word.alphabet, word.letters[:i]),
             Word(word.alphabet, word.letters[i + m:]))
            for i in range(n - m + 1) if word.letters[i:i + m] == pattern.letters]


def contains(word: Word, pattern: Word) -> bool:
    return bool(occurrences_of(word, pattern))


@pytest.fixture(scope="session")
def weyl():
    return load("weyl.pres")


@pytest.fixture(scope="session")
def comm3():
    return load("commuting3.pres")


@pytest.fixture(scope="session")
def comm4():
    return load("commuting4.pres")


@pytest.fixture(scope="session")
def sl2():
    return load("sl2.pres")


@pytest.fixture(scope="session")
def dup_lhs():
    return load("dup_lhs.pres")


@pytest.fixture(scope="session")
def aba():
    return load("aba.pres")
