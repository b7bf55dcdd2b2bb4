"""Command-line front end: parse a presentation file and drive the engine.

Exit codes (stable):
  0  success (for ``check``: confluent)
  1  negative verdict (not confluent / inclusion not certified; the
     quotient ring refuses a system that is not confluent)
  2  system incompatible with the ordering
  3  usage, syntax or validation error (also a malformed graph file)
  4  oracle budget exhausted
  5  internal error: a fault in ncrewrite, not a verdict; the traceback
     is printed to standard error
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from collections import namedtuple

from .ambiguity import ambiguities, check_all, simplify_system
from .arw import GraphError, newman_verdict, parse_graph
from .coeff import CoefficientError, FieldDescriptor
from .freealg import Alphabet
from .order import OrderingSpec, format_violations
from .quotient import QuotientError, QuotientRing, independence_check
from .rewrite import (
    BudgetExceededError,
    DEFAULT_ORACLE_BUDGET,
    IncompatibleSystemError,
    ReductionSystem,
    Rule,
    all_normal_forms,
    format_trace,
    normal_form,
)
from .syntax import GENERATOR, ExpressionError, format_polynomial, parse_polynomial, parse_word

BUDGET_ENV_VAR = "NCREWRITE_ORACLE_BUDGET"


class UsageError(Exception):
    """Bad input that argparse does not check: an option, an environment
    value, a subset file or a file that is not UTF-8."""


class PresentationError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


Presentation = namedtuple("Presentation", "field alphabet ordering system")


def _decimal(text: str) -> int:
    """The value of a string of decimal digits; -1 for anything else,
    also for more digits than Python converts."""
    try:
        return int(text) if text.isdecimal() else -1
    except ValueError:
        return -1


def parse_presentation(text: str) -> Presentation:
    """Line-oriented grammar with ``#`` comments:

    field Q | field F <p>
    generators a < b < c
    weight <gen> <n>        (optional, repeatable)
    rule <word> -> <polynomial>
    """
    field = None
    names: list[str] | None = None
    weights: dict[str, tuple[int, int]] = {}  # name -> (weight, line)
    rule_lines: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            if field is not None:
                raise PresentationError(lineno, "duplicate field directive")
            parts = rest.split()
            modulus = _decimal(parts[1]) if len(parts) == 2 and parts[0] == "F" else -1
            if parts == ["Q"]:
                field = FieldDescriptor()
            elif modulus >= 0:
                try:
                    field = FieldDescriptor(modulus)
                except CoefficientError as exc:  # not prime, or too large to decide
                    raise PresentationError(lineno, str(exc)) from None
            else:
                raise PresentationError(lineno, f"bad field {rest!r}")
        elif head == "generators":
            if names is not None:
                raise PresentationError(lineno, "duplicate generators directive")
            names = [t.strip() for t in rest.split("<")]
            bad = next((n for n in names if not GENERATOR.fullmatch(n)), None)
            if bad is not None:
                raise PresentationError(
                    lineno, f"bad generator list {rest!r}: {bad!r} is not a generator name")
            if len(set(names)) != len(names):
                raise PresentationError(lineno, "duplicate generator")
        elif head == "weight":
            parts = rest.split()
            weight = _decimal(parts[1]) if len(parts) == 2 else -1
            if weight < 1:
                raise PresentationError(lineno, f"bad weight directive {rest!r}")
            if parts[0] in weights:
                raise PresentationError(lineno, f"duplicate weight for {parts[0]!r}")
            weights[parts[0]] = (weight, lineno)
        elif head == "rule":
            lhs_text, arrow, rhs_text = rest.partition("->")
            if not arrow or not lhs_text.strip() or not rhs_text.strip():
                raise PresentationError(lineno, "rule must read '<word> -> <polynomial>'")
            rule_lines.append((lineno, lhs_text.strip(), rhs_text.strip()))
        else:
            raise PresentationError(lineno, f"unknown directive {head!r}")

    if field is None:
        raise PresentationError(0, "missing field directive")
    if names is None:
        raise PresentationError(0, "missing generators directive")
    for name, (_, lineno) in weights.items():
        if name not in names:
            raise PresentationError(lineno, f"weight for unknown generator {name!r}")
    # alphabet keeps the declaration order; precedence is that same order
    alphabet = Alphabet(tuple(names), tuple(weights.get(n, (1,))[0] for n in names))
    ordering = OrderingSpec(alphabet, tuple(names))
    rules = []
    for lineno, lhs_text, rhs_text in rule_lines:
        try:
            lhs = parse_word(lhs_text, alphabet)
            rhs = parse_polynomial(rhs_text, field, alphabet)
        except ExpressionError as exc:
            raise PresentationError(lineno, str(exc)) from None
        if lhs.is_one():
            raise PresentationError(lineno, "empty rule left side")
        rules.append(Rule(lhs, rhs))
    system = ReductionSystem(alphabet, field, tuple(rules))
    return Presentation(field, alphabet, ordering, system)


def format_presentation(p: Presentation) -> str:
    lines = [f"field {p.field}"]
    lines.append("generators " + " < ".join(p.ordering.precedence))
    for name, weight in zip(p.alphabet.symbols, p.alphabet.weights):
        if weight != 1:
            lines.append(f"weight {name} {weight}")
    for rule in p.system.rules:
        lines.append(f"rule {rule.lhs} -> {format_polynomial(rule.rhs, p.ordering)}")
    return "\n".join(lines) + "\n"


def _ambiguity_dict(amb, p, verdict=None):
    out = {
        "kind": amb.kind,
        "sigma": amb.sigma,
        "tau": amb.tau,
        "A": str(amb.a),
        "B": str(amb.b),
        "C": str(amb.c),
        "D": str(amb.word),
    }
    if verdict is not None:
        out["nf_left"] = format_polynomial(verdict.nf_left, p.ordering)
        out["nf_right"] = format_polynomial(verdict.nf_right, p.ordering)
        out["resolvable"] = verdict.resolvable
    return out


def _emit(data: dict, human: str, fmt: str):
    if fmt == "structured":
        print(json.dumps(data, indent=2))
    else:
        print(human)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # a ValueError, not an OSError
        raise UsageError(f"{path}: {exc}") from None


def _load_presentation(path: str) -> Presentation:
    return parse_presentation(_read(path))


def cmd_check(p: Presentation, args) -> int:
    report = check_all(p.system, p.ordering)
    if not report.compatible:
        _emit({"verdict": "incompatible",
               "violations": [{"rule": i, "monomial": str(w)}
                              for i, w in report.compatibility.violations]},
              "incompatible: " + format_violations(report.compatibility),
              args.format)
        return 2
    verdicts = [_ambiguity_dict(v.ambiguity, p, v) for v in report.verdicts]
    human = [f"{len(report.verdicts)} ambiguities, "
             + ("confluent" if report.confluent else "not confluent")]
    for v in verdicts:
        status = "resolvable" if v["resolvable"] else \
            f"NOT resolvable (nf_left {v['nf_left']}, nf_right {v['nf_right']})"
        human.append(f"  {v['kind']} at {v['D']}: {status}")
    _emit({"verdict": "confluent" if report.confluent else "not confluent",
           "ambiguities": verdicts},
          "\n".join(human), args.format)
    return 0 if report.confluent else 1


def cmd_nf(p: Presentation, args) -> int:
    expr = parse_polynomial(args.expr, p.field, p.alphabet)
    result = normal_form(expr, p.system, p.ordering)
    text = format_polynomial(result.value, p.ordering)
    data = {"normal_form": text}
    human = text
    if args.trace:
        data["trace"] = format_trace(result.trace).splitlines()
        if result.trace:
            human += "\n" + format_trace(result.trace)
    _emit(data, human, args.format)
    return 0


def cmd_mul(p: Presentation, args) -> int:
    ring = QuotientRing.build(p.system, p.ordering)
    a = ring.normal_form(parse_polynomial(args.left, p.field, p.alphabet))
    b = ring.normal_form(parse_polynomial(args.right, p.field, p.alphabet))
    text = format_polynomial(ring.multiply(a, b), p.ordering)
    _emit({"product": text}, text, args.format)
    return 0


def cmd_member(p: Presentation, args) -> int:
    ring = QuotientRing.build(p.system, p.ordering)
    member = ring.ideal_member(parse_polynomial(args.expr, p.field, p.alphabet))
    _emit({"member": member}, "member" if member else "not a member", args.format)
    return 0


def cmd_basis(p: Presentation, args) -> int:
    if args.max_degree < 0:
        raise UsageError(f"--max-degree must be >= 0, not {args.max_degree}")
    ring = QuotientRing.build(p.system, p.ordering)
    words = ring.basis_words(args.max_degree)
    _emit({"basis": [str(w) for w in words]},
          "\n".join(str(w) for w in words), args.format)
    return 0


def cmd_ambiguities(p: Presentation, args) -> int:
    ambs = ambiguities(p.system)
    _emit({"ambiguities": [_ambiguity_dict(a, p) for a in ambs]},
          "\n".join(f"{a.kind} sigma={a.sigma} tau={a.tau} D={a.word}"
                    for a in ambs) or "no ambiguities",
          args.format)
    return 0


def cmd_oracle(p: Presentation, args) -> int:
    if args.budget is None:
        source = BUDGET_ENV_VAR
        text = os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_ORACLE_BUDGET))
    else:
        source, text = "--budget", str(args.budget)
    budget = _decimal(text)
    if budget < 0:
        raise UsageError(f"{source} must be an integer >= 0, not {text!r}")
    expr = parse_polynomial(args.expr, p.field, p.alphabet)
    forms = all_normal_forms(expr, p.system, budget)
    rendered = sorted(format_polynomial(f, p.ordering) for f in forms)
    _emit({"normal_forms": rendered}, "\n".join(rendered), args.format)
    return 0


def cmd_simplify(p: Presentation, args) -> int:
    simplified = simplify_system(p.system)
    out = format_presentation(
        Presentation(p.field, p.alphabet, p.ordering, simplified))
    if args.format == "structured":
        print(json.dumps({"presentation": out}))
    else:
        print(out, end="")
    return 0


def cmd_independent(p: Presentation, args) -> int:
    subset = _load_presentation(args.subset_file)
    if subset.alphabet != p.alphabet or subset.field != p.field:
        raise UsageError(f"subset file {args.subset_file} must share field and "
                         f"generators with {args.presentation}")
    verdict = independence_check(subset.system, p.system, p.ordering)
    data = {"strict": verdict.strict, "witness": verdict.witness,
            "independent_rules": list(verdict.independent_rules)}
    if verdict.strict:
        human = f"strict inclusion certified: rule {verdict.witness} " \
                f"({p.system.rules[verdict.witness].lhs}) is irreducible " \
                "for the subsystem"
    else:
        human = "not certified: every rule left side is reducible for the subsystem"
    if verdict.independent_rules:
        human += "\nno ambiguities: rules " + \
            ", ".join(map(str, verdict.independent_rules)) + \
            " are each independent of the others"
    _emit(data, human, args.format)
    return 0 if verdict.strict else 1


def cmd_graph(args) -> int:
    verdict = newman_verdict(parse_graph(_read(args.edge_file)))
    if verdict.ok:
        data = {"ok": True,
                "components": [{"vertices": sorted(c.vertices, key=repr),
                                "sink": c.sink}
                               for c in verdict.components]}
        human = "\n".join(
            f"component {{{', '.join(sorted(map(str, c.vertices)))}}}: sink {c.sink}"
            for c in verdict.components)
        _emit(data, human, args.format)
        return 0
    data = {"ok": False, "failure": verdict.failure,
            "witness": list(verdict.witness) if verdict.failure == "termination"
            else verdict.witness}
    if verdict.failure == "termination":
        human = "termination fails: cycle " + " -> ".join(map(str, verdict.witness))
    else:
        human = f"diamond condition fails at {verdict.witness}"
    _emit(data, human, args.format)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncrewrite",
        description="Confluence checking and canonical forms for reduction "
                    "systems on free associative algebras.")
    parser.add_argument("--format", choices=["human", "structured"],
                        default="human", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_presentation(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("presentation", help="presentation file")
        return sp

    with_presentation("check", "decide confluence")
    sp = with_presentation("nf", "normal form of an expression")
    sp.add_argument("expr")
    sp.add_argument("--trace", action="store_true")
    sp = with_presentation("mul", "multiply in the quotient ring")
    sp.add_argument("left")
    sp.add_argument("right")
    sp = with_presentation("member", "two-sided ideal membership")
    sp.add_argument("expr")
    sp = with_presentation("basis", "irreducible monomial basis")
    sp.add_argument("--max-degree", type=int, required=True)
    with_presentation("ambiguities", "list ambiguities without resolving them")
    sp = with_presentation("oracle", "all normal forms: word by word, exhaustive "
                           "search where a word is not provably unique")
    sp.add_argument("expr")
    sp.add_argument("--budget", type=int, default=None)
    with_presentation("simplify", "emit an inclusion-free subsystem")
    sp = with_presentation("independent", "certify strict ideal inclusion")
    sp.add_argument("subset_file")
    sp = sub.add_parser("graph", help="Newman verdict for an edge-list graph")
    sp.add_argument("edge_file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; ours is 3
        return 3 if exc.code == 2 else exc.code
    try:
        if args.command == "graph":
            return cmd_graph(args)
        p = _load_presentation(args.presentation)
        handler = {
            "check": cmd_check,
            "nf": cmd_nf,
            "mul": cmd_mul,
            "member": cmd_member,
            "basis": cmd_basis,
            "ambiguities": cmd_ambiguities,
            "oracle": cmd_oracle,
            "simplify": cmd_simplify,
            "independent": cmd_independent,
        }[args.command]
        return handler(p, args)
    except IncompatibleSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (PresentationError, ExpressionError, GraphError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QuotientError as exc:  # the ring refuses: not confluent, not a subsystem
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # a fault must not read as a negative verdict
        traceback.print_exc()
        return 5


if __name__ == "__main__":
    sys.exit(main())
