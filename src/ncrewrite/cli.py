"""Command-line front end: parse a presentation file and drive the engine.

Exit codes (stable; ERROR_EXITS maps each error type to its code):
  0  success (for ``check``: confluent)
  1  negative verdict: not confluent, inclusion not certified, no unique
     sink; QuotientError: the quotient ring refuses a system that is not
     confluent, or a subset file that is not a subsystem
  2  system incompatible with the ordering: IncompatibleSystemError
  3  usage, syntax, validation or file error: argparse's usage errors,
     PresentationError, ExpressionError, GraphError, UsageError, OSError
  4  oracle budget exhausted: BudgetExceededError
  5  internal error: any other exception, a fault in ncrewrite and not a
     verdict; the traceback is printed to standard error
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


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # a ValueError, not an OSError
        raise UsageError(f"{path}: {exc}") from None


# Each command returns (exit code, structured data, human text); main
# prints the one that --format asks for.

def cmd_check(p: Presentation, args):
    report = check_all(p.system, p.ordering)
    if not report.compatible:
        return (2, {"verdict": "incompatible",
                    "violations": [{"rule": i, "monomial": str(w)}
                                   for i, w in report.compatibility.violations]},
                "incompatible: " + format_violations(report.compatibility))
    verdicts = [_ambiguity_dict(v.ambiguity, p, v) for v in report.verdicts]
    verdict = "confluent" if report.confluent else "not confluent"
    human = [f"{len(report.verdicts)} ambiguities, {verdict}"]
    for v in verdicts:
        status = "resolvable" if v["resolvable"] else \
            f"NOT resolvable (nf_left {v['nf_left']}, nf_right {v['nf_right']})"
        human.append(f"  {v['kind']} at {v['D']}: {status}")
    return (0 if report.confluent else 1,
            {"verdict": verdict, "ambiguities": verdicts}, "\n".join(human))


def cmd_nf(p: Presentation, args):
    expr = parse_polynomial(args.expr, p.field, p.alphabet)
    result = normal_form(expr, p.system, p.ordering)
    text = format_polynomial(result.value, p.ordering)
    if not args.trace:
        return 0, {"normal_form": text}, text
    trace = format_trace(result.trace)
    return (0, {"normal_form": text, "trace": trace.splitlines()},
            text + "\n" + trace if trace else text)


def cmd_mul(p: Presentation, args):
    ring = QuotientRing.build(p.system, p.ordering)
    a = ring.normal_form(parse_polynomial(args.left, p.field, p.alphabet))
    b = ring.normal_form(parse_polynomial(args.right, p.field, p.alphabet))
    text = format_polynomial(ring.multiply(a, b), p.ordering)
    return 0, {"product": text}, text


def cmd_member(p: Presentation, args):
    ring = QuotientRing.build(p.system, p.ordering)
    member = ring.ideal_member(parse_polynomial(args.expr, p.field, p.alphabet))
    return 0, {"member": member}, "member" if member else "not a member"


def cmd_basis(p: Presentation, args):
    if args.max_degree < 0:
        raise UsageError(f"--max-degree must be >= 0, not {args.max_degree}")
    ring = QuotientRing.build(p.system, p.ordering)
    words = [str(w) for w in ring.basis_words(args.max_degree)]
    return 0, {"basis": words}, "\n".join(words)


def cmd_ambiguities(p: Presentation, args):
    ambs = ambiguities(p.system)
    return (0, {"ambiguities": [_ambiguity_dict(a, p) for a in ambs]},
            "\n".join(f"{a.kind} sigma={a.sigma} tau={a.tau} D={a.word}"
                      for a in ambs) or "no ambiguities")


def cmd_oracle(p: Presentation, args):
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
    return 0, {"normal_forms": rendered}, "\n".join(rendered)


def cmd_simplify(p: Presentation, args):
    out = format_presentation(p._replace(system=simplify_system(p.system)))
    return 0, {"presentation": out}, out[:-1]  # print puts the last newline back


def cmd_independent(p: Presentation, args):
    subset = parse_presentation(_read(args.subset_file))
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
    return 0 if verdict.strict else 1, data, human


def cmd_graph(_, args):
    verdict = newman_verdict(parse_graph(_read(args.edge_file)))
    if verdict.ok:
        return (0, {"ok": True,
                    "components": [{"vertices": sorted(c.vertices, key=repr),
                                    "sink": c.sink}
                                   for c in verdict.components]},
                "\n".join(f"component {{{', '.join(sorted(map(str, c.vertices)))}}}: "
                          f"sink {c.sink}" for c in verdict.components))
    if verdict.failure == "termination":
        return (1, {"ok": False, "failure": verdict.failure,
                    "witness": list(verdict.witness)},
                "termination fails: cycle " + " -> ".join(map(str, verdict.witness)))
    return (1, {"ok": False, "failure": verdict.failure, "witness": verdict.witness},
            f"diamond condition fails at {verdict.witness}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncrewrite",
        description="Confluence checking and canonical forms for reduction "
                    "systems on free associative algebras.")
    parser.add_argument("--format", choices=["human", "structured"],
                        default="human", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text, indent=2, presentation=True):
        sp = sub.add_parser(name, help=help_text)
        if presentation:
            sp.add_argument("presentation", help="presentation file")
        sp.set_defaults(run=run, indent=indent)  # indent: of the structured output
        return sp

    command("check", cmd_check, "decide confluence")
    sp = command("nf", cmd_nf, "normal form of an expression")
    sp.add_argument("expr")
    sp.add_argument("--trace", action="store_true")
    sp = command("mul", cmd_mul, "multiply in the quotient ring")
    sp.add_argument("left")
    sp.add_argument("right")
    command("member", cmd_member, "two-sided ideal membership").add_argument("expr")
    sp = command("basis", cmd_basis, "irreducible monomial basis")
    sp.add_argument("--max-degree", type=int, required=True)
    command("ambiguities", cmd_ambiguities, "list ambiguities without resolving them")
    sp = command("oracle", cmd_oracle, "all normal forms: word by word, exhaustive "
                 "search where a word is not provably unique")
    sp.add_argument("expr")
    sp.add_argument("--budget", type=int, default=None)
    command("simplify", cmd_simplify, "emit an inclusion-free subsystem", indent=None)
    command("independent", cmd_independent,
            "certify strict ideal inclusion").add_argument("subset_file")
    command("graph", cmd_graph, "Newman verdict for an edge-list graph",
            presentation=False).add_argument("edge_file")
    return parser


# The first row whose types the error is an instance of gives the exit
# code; any other exception is a fault in ncrewrite, exit 5.
ERROR_EXITS = (
    (IncompatibleSystemError, 2),
    (BudgetExceededError, 4),
    ((PresentationError, ExpressionError, GraphError, UsageError, OSError), 3),
    (QuotientError, 1),  # the ring refuses: not confluent, not a subsystem
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; ours is 3
        return 3 if exc.code == 2 else exc.code
    try:
        p = parse_presentation(_read(args.presentation)) if "presentation" in args else None
        code, data, human = args.run(p, args)
        print(json.dumps(data, indent=args.indent) if args.format == "structured" else human)
        return code
    except Exception as exc:
        code = next((code for errors, code in ERROR_EXITS if isinstance(exc, errors)), 5)
        if code == 5:  # a fault must not read as a negative verdict
            traceback.print_exc()
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
