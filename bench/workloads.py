"""Seeded inputs and timed operations of the three benchmark workloads.

``SETUPS[workload](nc, seed, workdir, root)`` generates the inputs from the
seed, writes the generated presentation and graph files into workdir,
loads them with ncrewrite (the modules in the namespace nc) and returns
the operations.  Each operation is timed under one batch metric (its
phase) and is checked by ``reference.py`` against values ncrewrite did
not compute.

What the seed varies and what it keeps fixed: sizes are fixed, so the cost
of a pass stays the same from seed to seed.  The seed picks generator
names, rule order, coefficients, vertex labels and the order of the
operations.  Multiplication uses every pair of basis words up to a total
degree rather than a random sample, because the cost of a random sample of
sl2 pairs varied 2.6-fold between seeds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref

ORACLE_BUDGET = 10_000  # the oracle's documented default, passed explicitly
PRIME = 32003

PHASES = {
    "confluence": ("check_s",),
    "reduce": ("nf_s", "mul_s", "basis_s"),
    "verify": ("oracle_s", "crosscheck_s", "graph_s"),
}

# Verdicts of the shipped presentations: (confluent, number of ambiguities).
SHIPPED = {
    "aba": (False, 1),
    "commuting3": (True, 1),
    "commuting4": (True, 4),
    "dup_lhs": (False, 1),
    "sl2": (True, 1),
    "weyl": (True, 0),
}


@dataclass
class Op:
    phase: str                      # batch metric this operation is timed under
    label: str                      # names the operation in failure reports
    call: Callable[[], object]      # the timed call into ncrewrite
    canon: Callable[[object], object]   # output as plain data, untimed
    check: Callable[[object], str | None]  # reference check of that data


def read_presentation(text: str) -> dict:
    """Generator names in increasing precedence, rule left sides and the
    modulus, read from a presentation without ncrewrite."""
    names, lhss, modulus = [], [], None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        head, _, rest = line.partition(" ")
        if head == "field" and rest.strip() != "Q":
            modulus = int(rest.split()[1])
        elif head == "generators":
            names = [n.strip() for n in rest.split("<")]
        elif head == "rule":
            lhss.append(tuple(rest.partition("->")[0].strip().split("*")))
    return {"names": names, "lhss": lhss, "modulus": modulus,
            "ranks": {n: i for i, n in enumerate(names)}}


def random_names(rng: random.Random, n: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return rng.sample([a + b for a in letters for b in letters], n)


def commuting_text(rng: random.Random, names: list[str], field: str) -> str:
    """Commuting variables, precedence in the order of names: one rule
    ``n_j*n_i -> n_i*n_j`` per pair i < j, in seeded order."""
    rules = [f"rule {names[j]}*{names[i]} -> {names[i]}*{names[j]}"
             for j in range(len(names)) for i in range(j)]
    rng.shuffle(rules)
    head = [f"field {field}", "generators " + " < ".join(names)]
    return "\n".join(head + rules) + "\n"


def commuting_overlaps(names) -> set:
    """The C(n,3) overlap words n_c*n_b*n_a with a < b < c."""
    return {(names[c], names[b], names[a])
            for a, b, c in itertools.combinations(range(len(names)), 3)}


def point_rep(rng: random.Random, names, modulus=None) -> ref.PointRep:
    point = {n: Fraction(rng.randint(1, 97), rng.randint(1, 13)) for n in names}
    return ref.PointRep("commuting at a seeded point", point, modulus)


def grid_text(rng: random.Random, n: int, fork: bool):
    """An n x n grid lattice with seeded vertex labels, and its expected
    verdict.  The fork edge starts at the non-sink vertex whose label the
    diamond check reaches last, so the check scans the whole grid before it
    fails wherever the seed puts the labels."""
    numbers = rng.sample(range(100_000, 1_000_000), n * n + 1)
    label = {(i, j): f"v{numbers[i * n + j]}" for i in range(n) for j in range(n)}
    edges = []
    for (i, j), u in label.items():
        if i + 1 < n:
            edges.append(f"{u} -> {label[i + 1, j]}")
        if j + 1 < n:
            edges.append(f"{u} -> {label[i, j + 1]}")
    sink = label[n - 1, n - 1]
    expected = {"fork": None, "sink": sink, "vertices": n * n}
    if fork:
        u = max((v for v in label.values() if v != sink), key=repr)
        edges.append(f"{u} -> v{numbers[-1]}")
        expected = {"fork": u}
    rng.shuffle(edges)
    return "\n".join(edges) + "\n", expected


def poly_data(poly) -> frozenset:
    symbols = poly.alphabet.symbols
    return frozenset((tuple(symbols[i] for i in w.letters), c.value)
                     for w, c in poly.items())


def run_cli(nc, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = nc.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _identity(x):
    return x


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _shipped_text(root: str, name: str) -> str:
    with open(os.path.join(root, "presentations", name + ".pres"),
              encoding="utf-8") as fh:
        return fh.read()


def _shipped_reps(rng, name, info):
    if name.startswith("commuting"):
        return [point_rep(rng, info["names"])]
    return {"sl2": ref.sl2_reps(), "weyl": [ref.weyl_rep()]}.get(name, [])


def setup_confluence(nc, seed: int, workdir: str, root: str) -> list[Op]:
    """``check`` through the CLI on commuting n = 6, 8, 10 over Q, n = 8 over
    F_32003 and the six shipped presentations."""
    rng = random.Random(seed)
    jobs = []
    for n, field in ((6, "Q"), (8, "Q"), (10, "Q"), (8, f"F {PRIME}")):
        names = random_names(rng, n)
        text = commuting_text(rng, names, field)
        path = _write(workdir, f"commuting{n}_{field.replace(' ', '')}.pres", text)
        info = read_presentation(text)
        modulus = info["modulus"]
        jobs.append((f"check commuting{n} over {field}", path, {
            "confluent": True, "count": math.comb(n, 3),
            "words": commuting_overlaps(names), "reps": [point_rep(rng, names, modulus)],
            **info}))
    for name, (confluent, count) in SHIPPED.items():
        info = read_presentation(_shipped_text(root, name))
        jobs.append((f"check {name}.pres",
                     os.path.join(root, "presentations", name + ".pres"), {
                         "confluent": confluent, "count": count, "words": None,
                         "reps": _shipped_reps(rng, name, info), **info}))
    rng.shuffle(jobs)
    return [Op("check_s", label,
               lambda path=path: run_cli(nc, ["--format", "structured", "check", path]),
               _identity,
               lambda result, expected=expected: ref.check_confluence_cli(result, expected))
            for label, path, expected in jobs]


def _load(nc, text):
    p = nc.cli.parse_presentation(text)
    return p, read_presentation(text)


def _nonzero(rng, top=9):
    return rng.choice([-1, 1]) * rng.randint(1, top)


def setup_reduce(nc, seed: int, workdir: str, root: str) -> list[Op]:
    """A library session: each QuotientRing is built once, then normal_form,
    multiply and basis_words are timed."""
    rng = random.Random(seed)
    sl2_text = _shipped_text(root, "sl2")
    systems = {
        "sl2": sl2_text,
        "sl2 F_p": sl2_text.replace("field Q", f"field F {PRIME}"),
        "weyl": _shipped_text(root, "weyl"),
        "q-plane": "field Q\ngenerators x < y\nrule y*x -> 3/2*x*y\n",
        "commuting4": _shipped_text(root, "commuting4"),
    }
    rings, infos = {}, {}
    for name, text in systems.items():
        p, info = _load(nc, text)
        rings[name] = nc.quotient.QuotientRing.build(p.system, p.ordering)
        infos[name] = info
    reps = {"sl2": ref.sl2_reps(), "sl2 F_p": ref.sl2_reps(PRIME),
            "weyl": [ref.weyl_rep()], "q-plane": [ref.qplane_rep(Fraction(3, 2))]}

    ops = []

    def nf_op(name, label, poly, factors):
        """factors: the input as a product of elements, for the reference."""
        k = ref.Scalars(infos[name]["modulus"])
        factors = [frozenset((w, k(c)) for w, c in f) for f in factors]
        ring = rings[name]
        ops.append(Op("nf_s", f"normal_form {name} {label}",
                      lambda: ring.normal_form(poly), poly_data,
                      lambda out: ref.check_normal_form(
                          out, factors, infos[name]["lhss"], reps[name])))

    def parse(name, text):
        system = rings[name].system
        return nc.syntax.parse_polynomial(text, system.field, system.alphabet)

    for name in ("sl2", "sl2 F_p"):
        for n in (3, 4):
            c = Fraction(_nonzero(rng), rng.randint(1, 9))
            text = f"{c}*h^{n}*f^{n}*e^{n}"
            nf_op(name, text, parse(name, text),
                  [[(("h",) * n + ("f",) * n + ("e",) * n, c)]])
    for name, powers in (("weyl", (6, 7, 8)), ("q-plane", (8,))):
        for k in powers:
            a, b = _nonzero(rng), _nonzero(rng)
            linear = f"{a}*x {'-' if b < 0 else '+'} {abs(b)}*y"
            base = parse(name, linear)
            poly = base
            for _ in range(k - 1):
                poly = poly * base
            nf_op(name, f"({linear})^{k}", poly, [[(("x",), a), (("y",), b)]] * k)

    # every pair of nonempty basis words: sl2 up to total degree 6, Weyl
    # with each factor of degree <= 6 (x^a y^b)
    sl2_words = [("e",) * a + ("f",) * b + ("h",) * c
                 for a in range(7) for b in range(7) for c in range(7)
                 if 0 < a + b + c <= 5]
    weyl_words = [("x",) * a + ("y",) * b
                  for a in range(7) for b in range(7) if 0 < a + b <= 6]
    pairs = [("sl2", u, v) for u in sl2_words for v in sl2_words
             if len(u) + len(v) <= 6]
    pairs += [("weyl", u, v) for u in weyl_words for v in weyl_words]

    def element(name, word, c):
        system = rings[name].system
        letters = tuple(system.alphabet.symbols.index(x) for x in word)
        return nc.freealg.Polynomial.monomial(nc.freealg.Word(system.alphabet, letters),
                                              system.field.coeff(c))

    for name, u, v in pairs:
        ring = rings[name]
        a = element(name, u, Fraction(_nonzero(rng), rng.randint(1, 5)))
        b = element(name, v, _nonzero(rng))
        ops.append(Op("mul_s", f"multiply {name} {'*'.join(u)} by {'*'.join(v)}",
                      lambda ring=ring, a=a, b=b: ring.multiply(a, b), poly_data,
                      lambda out, a=poly_data(a), b=poly_data(b), name=name:
                      ref.check_product(out, a, b, infos[name]["lhss"], reps[name])))

    for name, degree, hilbert in (("sl2", 10, ref.hilbert_commuting(3)),
                                  ("commuting4", 8, ref.hilbert_commuting(4)),
                                  ("weyl", 12, ref.hilbert_commuting(2))):
        ring, info = rings[name], infos[name]
        symbols = ring.system.alphabet.symbols
        ops.append(Op("basis_s", f"basis_words {name} to degree {degree}",
                      lambda ring=ring, degree=degree: ring.basis_words(degree),
                      lambda out, symbols=symbols: tuple(
                          tuple(symbols[i] for i in w.letters) for w in out),
                      lambda words, info=info, degree=degree, hilbert=hilbert:
                      ref.check_basis(words, degree, info["lhss"], info["ranks"],
                                      hilbert)))
    rng.shuffle(ops)
    return ops


def setup_verify(nc, seed: int, workdir: str, root: str) -> list[Op]:
    """The independent slow paths: the exhaustive oracle, the relative
    cross-check and Newman's lemma on graphs."""
    rng = random.Random(seed)
    ops = []
    for name, length, extra in (("weyl", 6, ()), ("commuting3", 6, ()),
                                ("aba", 6, ()), ("dup_lhs", 6, ()),
                                ("commuting4", 5, ()), ("sl2", 4, ("f*e*f*e*e",))):
        text = _shipped_text(root, name)
        p, info = _load(nc, text)
        confluent = SHIPPED[name][0]
        reps = _shipped_reps(rng, name, info)
        n = len(info["names"])
        words = [w for m in range(length + 1)
                 for w in itertools.product(range(n), repeat=m)]
        words += [tuple(info["names"].index(x) for x in e.split("*")) for e in extra]
        for letters in words:
            word = nc.freealg.Word(p.alphabet, letters)
            poly = nc.freealg.Polynomial.monomial(word, p.field.one())
            names = tuple(info["names"][i] for i in letters)

            def check(forms, p=p, poly=poly, info=info, reps=reps,
                      confluent=confluent, names=names):
                nf = poly_data(nc.rewrite.normal_form(poly, p.system, p.ordering).value)
                return ref.check_oracle(forms, nf, frozenset([(names, Fraction(1))]),
                                        info["lhss"], reps, confluent)

            ops.append(Op("oracle_s", f"oracle {name} {'*'.join(names) or '1'}",
                          lambda p=p, poly=poly: nc.rewrite.all_normal_forms(
                              poly, p.system, ORACLE_BUDGET),
                          lambda forms: frozenset(map(poly_data, forms)), check))

    systems = []
    for n in (3, 4, 5):
        systems.append((f"commuting{n}", commuting_text(rng, random_names(rng, n), "Q"),
                        math.comb(n, 3)))
    systems += [("sl2", _shipped_text(root, "sl2"), 1),
                ("weyl", _shipped_text(root, "weyl"), 0)]
    for name, text, count in systems:
        p, _ = _load(nc, text)
        ops.append(Op("crosscheck_s", f"check_all {name} cross_check=True",
                      lambda p=p: nc.ambiguity.check_all(p.system, p.ordering,
                                                         cross_check=True),
                      lambda r: (r.relative_agrees, r.confluent, len(r.verdicts)),
                      lambda data, count=count: ref.check_crosscheck(data, count)))

    for n in (10, 14):
        for fork in (False, True):
            text, expected = grid_text(rng, n, fork)
            path = _write(workdir, f"grid{n}{'_fork' if fork else ''}.graph", text)
            ops.append(Op("graph_s", f"graph grid {n}x{n}{' with fork' if fork else ''}",
                          lambda path=path: run_cli(nc, ["graph", path]), _identity,
                          lambda result, expected=expected:
                          ref.check_graph_cli(result, expected)))
    rng.shuffle(ops)
    return ops


SETUPS = {"confluence": setup_confluence, "reduce": setup_reduce,
          "verify": setup_verify}
