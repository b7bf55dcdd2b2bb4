"""Reference checks for the benchmark, written without ncrewrite.

Every check takes plain data and returns None when the answer is right,
or a one-line reason when it is wrong.  An element of k<X> is a frozenset
of ``(word, coefficient)`` pairs, a word is a tuple of generator names and
a coefficient is a Fraction (over Q) or a residue (over F_p).

Representations stand in for the quotient algebra: elements that are equal
in the algebra act equally in every representation, so a normal form or a
product that acts differently from its input is wrong.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction


class Scalars:
    """Canonical values of Q (modulus None) or of F_p."""

    def __init__(self, modulus: int | None = None):
        self.modulus = modulus

    def __call__(self, value):
        if self.modulus is None:
            return Fraction(value)
        value = Fraction(value)
        num = value.numerator % self.modulus
        return num * pow(value.denominator, -1, self.modulus) % self.modulus

    def add(self, a, b):
        return a + b if self.modulus is None else (a + b) % self.modulus

    def mul(self, a, b):
        return a * b if self.modulus is None else a * b % self.modulus


def degree(poly) -> int:
    return max((len(w) for w, _ in poly), default=0)


def first_reducible(poly, lhss):
    """The first word of poly that contains a rule left side, else None."""
    for word, _ in sorted(poly):
        for lhs in lhss:
            m = len(lhs)
            if any(word[i:i + m] == lhs for i in range(len(word) - m + 1)):
                return word
    return None


class MatrixRep:
    """Generators as exact square matrices; acts on any element."""

    def __init__(self, name: str, gens: dict, modulus: int | None = None):
        self.name = name
        self.k = Scalars(modulus)
        self.gens = {g: [[self.k(x) for x in row] for row in m]
                     for g, m in gens.items()}
        self.dim = len(next(iter(gens.values())))
        self._words = {(): self._identity()}

    def _identity(self):
        return [[self.k(int(i == j)) for j in range(self.dim)]
                for i in range(self.dim)]

    def _matmul(self, a, b):
        k = self.k
        out = []
        for row in a:
            out_row = []
            for j in range(self.dim):
                s = k(0)
                for i in range(self.dim):
                    if row[i] and b[i][j]:
                        s = k.add(s, k.mul(row[i], b[i][j]))
                out_row.append(s)
            out.append(out_row)
        return out

    def _word(self, word):
        m = self._words.get(word)
        if m is None:
            m = self._matmul(self._word(word[:-1]), self.gens[word[-1]])
            self._words[word] = m
        return m

    def _poly(self, poly):
        k = self.k
        total = [[k(0)] * self.dim for _ in range(self.dim)]
        for word, c in poly:
            m = self._word(word)
            for i in range(self.dim):
                for j in range(self.dim):
                    if m[i][j]:
                        total[i][j] = k.add(total[i][j], k.mul(c, m[i][j]))
        return total

    def evaluate(self, factors, size):
        """The matrix of the product of factors; size is not needed here."""
        out = self._identity()
        for f in factors:
            out = self._matmul(out, self._poly(f))
        return tuple(map(tuple, out))


class OperatorRep:
    """Generators as linear operators on k[t], compared on t^0 .. t^size.

    An element of degree d acts as an operator of order at most d in the
    Weyl and q-plane representations, and such an operator is fixed by its
    values on 1, t, ..., t^d.
    """

    def __init__(self, name: str, gens: dict, modulus: int | None = None):
        self.name = name
        self.k = Scalars(modulus)
        self.gens = gens  # name -> function (dict exponent -> value) -> dict

    def _apply(self, poly, vec):
        k = self.k
        out = {}
        for word, c in poly:
            v = vec
            for letter in reversed(word):
                v = self.gens[letter](v, k)
                if not v:
                    break
            for e, x in v.items():
                out[e] = k.add(out.get(e, k(0)), k.mul(c, x))
        return {e: x for e, x in out.items() if x}

    def evaluate(self, factors, size):
        images = []
        for m in range(size + 1):
            v = {m: self.k(1)}
            for f in reversed(factors):
                v = self._apply(f, v)
            images.append(frozenset(v.items()))
        return tuple(images)


class PointRep:
    """Commuting generators evaluated at one point."""

    def __init__(self, name: str, point: dict, modulus: int | None = None):
        self.name = name
        self.k = Scalars(modulus)
        self.point = {g: self.k(v) for g, v in point.items()}

    def evaluate(self, factors, size):
        k = self.k
        total = k(1)
        for f in factors:
            s = k(0)
            for word, c in f:
                v = c
                for letter in word:
                    v = k.mul(v, self.point[letter])
                s = k.add(s, v)
            total = k.mul(total, s)
        return total


def _times_t(vec, k):
    return {e + 1: x for e, x in vec.items()}


def _d_dt(vec, k):
    return {e - 1: k.mul(k(e), x) for e, x in vec.items() if e}


def weyl_rep(modulus=None) -> OperatorRep:
    """x acts as multiplication by t and y as d/dt, so yx = xy + 1."""
    return OperatorRep("Weyl on k[t]", {"x": _times_t, "y": _d_dt}, modulus)


def qplane_rep(q: Fraction, modulus=None) -> OperatorRep:
    """x acts as multiplication by t and y by y t^m = q^m t^m, so yx = q xy."""
    def scale(vec, k):
        return {e: k.mul(k(q ** e), x) for e, x in vec.items()}
    return OperatorRep("q-plane on k[t]", {"x": _times_t, "y": scale}, modulus)


def sl2_reps(modulus=None) -> list[MatrixRep]:
    """The 2- and 3-dimensional modules: [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    two = {"e": [[0, 1], [0, 0]], "f": [[0, 0], [1, 0]], "h": [[1, 0], [0, -1]]}
    three = {"e": [[0, 1, 0], [0, 0, 2], [0, 0, 0]],
             "f": [[0, 0, 0], [2, 0, 0], [0, 1, 0]],
             "h": [[2, 0, 0], [0, 0, 0], [0, 0, -2]]}
    return [MatrixRep("sl2 dim 2", two, modulus),
            MatrixRep("sl2 dim 3", three, modulus)]


def _acts_like(out, factors, reps):
    size = max([degree(out)] + [sum(degree(f) for f in factors)])
    for rep in reps:
        if rep.evaluate([out], size) != rep.evaluate(factors, size):
            return rep.name
    return None


def check_normal_form(out, factors, lhss, reps):
    """out must be irreducible and act like the product of factors."""
    word = first_reducible(out, lhss)
    if word is not None:
        return f"normal form contains reducible word {'*'.join(word)}"
    bad = _acts_like(out, factors, reps)
    if bad is not None:
        return f"normal form acts differently from its input in {bad}"
    return None


def check_product(out, a, b, lhss, reps):
    """out must be irreducible and act like rep(a) * rep(b)."""
    word = first_reducible(out, lhss)
    if word is not None:
        return f"product contains reducible word {'*'.join(word)}"
    bad = _acts_like(out, [a, b], reps)
    if bad is not None:
        return f"product differs from rep(a)*rep(b) in {bad}"
    return None


def check_basis(words, max_degree, lhss, ranks, count_of_degree):
    """Distinct irreducible words in ascending deglex order, with the
    Hilbert-series count in every degree up to max_degree."""
    keys = [(len(w), tuple(ranks[x] for x in w)) for w in words]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "basis words are not strictly ascending in deglex order"
    word = first_reducible(frozenset((w, 1) for w in words), lhss)
    if word is not None:
        return f"basis contains reducible word {'*'.join(word)}"
    counts = [0] * (max_degree + 1)
    for w in words:
        if len(w) > max_degree:
            return f"basis word {'*'.join(w)} exceeds degree {max_degree}"
        counts[len(w)] += 1
    expected = [count_of_degree(d) for d in range(max_degree + 1)]
    if counts != expected:
        return f"basis counts {counts} differ from the Hilbert series {expected}"
    return None


def check_oracle(forms, nf, word, lhss, reps, confluent):
    """Confluent: forms == {nf}, each acting like the word.  Otherwise every
    form is irreducible and nf is among them."""
    for form in forms:
        bad = first_reducible(form, lhss)
        if bad is not None:
            return f"oracle form contains reducible word {'*'.join(bad)}"
    if confluent:
        if forms != frozenset([nf]):
            return f"oracle found {len(forms)} forms, expected the normal form only"
        for form in forms:
            bad = _acts_like(form, [word], reps)
            if bad is not None:
                return f"oracle form acts differently from the word in {bad}"
    elif nf not in forms:
        return "oracle forms miss the normal form"
    return None


def check_crosscheck(data, n_ambiguities):
    """data = (relative_agrees, confluent, number of verdicts)."""
    agrees, confluent, count = data
    if agrees is not True:
        return f"relative cross-check disagrees (relative_agrees={agrees})"
    if not confluent:
        return "confluent system reported not confluent"
    if count != n_ambiguities:
        return f"{count} ambiguities, expected {n_ambiguities}"
    return None


_NUMBER = re.compile(r"\d+(/\d+)?$")


def parse_poly(text: str, names, k: Scalars):
    """Read the CLI rendering of a polynomial: ``3/2*x*y - z + 1``."""
    if text == "0":
        return frozenset()
    tokens = text.split(" ")
    signed = [tokens[0]]
    for i in range(1, len(tokens), 2):
        if tokens[i] not in "+-" or i + 1 >= len(tokens):
            raise ValueError(f"bad polynomial {text!r}")
        signed.append(("-" if tokens[i] == "-" else "") + tokens[i + 1])
    terms = {}
    for body in signed:
        sign = -1 if body.startswith("-") else 1
        parts = body.lstrip("-").split("*")
        coeff = Fraction(1)
        if _NUMBER.match(parts[0]):
            coeff = Fraction(parts[0])
            parts = parts[1:]
        word = tuple(parts)
        if any(x not in names for x in word):
            raise ValueError(f"unknown generator in {text!r}")
        terms[word] = k.add(terms.get(word, k(0)), k(sign * coeff))
    return frozenset((w, c) for w, c in terms.items() if c)


def cli_failure(rc, err):
    """Exit 1 with an ``error:`` line is an internal error, not a verdict."""
    if rc == 1 and "error:" in err:
        return f"exit 1 with {err.strip().splitlines()[-1]!r}"
    return None


def check_confluence_cli(result, expected):
    """result = (exit code, stdout, stderr) of ``--format structured check``.

    expected has: confluent, count, words (set of ambiguity words or None),
    names, lhss, reps and modulus.
    """
    rc, out, err = result
    bad = cli_failure(rc, err)
    if bad:
        return bad
    want_rc = 0 if expected["confluent"] else 1
    if rc != want_rc or err:
        return f"exit {rc} (stderr {err.strip()!r}), expected {want_rc}"
    data = json.loads(out)
    want = "confluent" if expected["confluent"] else "not confluent"
    if data.get("verdict") != want:
        return f"verdict {data.get('verdict')!r}, expected {want!r}"
    ambs = data["ambiguities"]
    if len(ambs) != expected["count"]:
        return f"{len(ambs)} ambiguities, expected {expected['count']}"
    names, k = expected["names"], Scalars(expected["modulus"])
    words = [tuple(a["D"].split("*")) for a in ambs]
    if expected["words"] is not None and set(words) != expected["words"]:
        return "ambiguity words differ from the overlaps known by construction"
    for amb, word in zip(ambs, words):
        left = parse_poly(amb["nf_left"], names, k)
        right = parse_poly(amb["nf_right"], names, k)
        if amb["resolvable"] != (left == right):
            return f"resolvable flag wrong at {amb['D']}"
        for side in (left, right):
            bad = first_reducible(side, expected["lhss"])
            if bad is not None:
                return f"branch normal form at {amb['D']} contains {'*'.join(bad)}"
            if expected["confluent"]:
                rep = _acts_like(side, [frozenset([(word, k(1))])], expected["reps"])
                if rep is not None:
                    return f"branch normal form at {amb['D']} differs in {rep}"
    if not expected["confluent"] and all(a["resolvable"] for a in ambs):
        return "no unresolvable ambiguity in a non-confluent system"
    return None


def check_graph_cli(result, expected):
    """result = (exit code, stdout, stderr) of ``graph FILE``.

    expected has: fork (vertex where the diamond fails, or None), sink and
    vertices (for a grid: its one sink and the number of its vertices).
    """
    rc, out, err = result
    bad = cli_failure(rc, err)
    if bad:
        return bad
    if expected["fork"] is not None:
        want = f"diamond condition fails at {expected['fork']}"
        if rc != 1 or out.strip() != want:
            return f"exit {rc} {out.strip()[:80]!r}, expected {want!r}"
        return None
    lines = out.strip().splitlines()
    if rc != 0 or len(lines) != 1:
        return f"exit {rc} with {len(lines)} components, expected one"
    match = re.fullmatch(r"component \{(.*)\}: sink (\S+)", lines[0])
    if match is None:
        return f"unreadable verdict {lines[0][:80]!r}"
    if match.group(2) != expected["sink"]:
        return f"sink {match.group(2)}, expected {expected['sink']}"
    if len(match.group(1).split(", ")) != expected["vertices"]:
        return "component does not hold every grid vertex"
    return None


def hilbert_commuting(n):
    """Monomials of degree d in n commuting variables: C(d+n-1, n-1)."""
    return lambda d: math.comb(d + n - 1, n - 1)
