import itertools
import json
import pathlib
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ncrewrite.arw import DiamondResult
from ncrewrite.cli import (
    Presentation,
    PresentationError,
    format_presentation,
    main,
    parse_presentation,
)
from ncrewrite.coeff import FieldDescriptor
from ncrewrite.freealg import Alphabet, Polynomial, Word
from ncrewrite.order import OrderingSpec
from ncrewrite.rewrite import ReductionSystem, Rule
from ncrewrite.syntax import (
    GENERATOR,
    MAX_POWER_LETTERS,
    ExpressionError,
    format_polynomial,
    parse_polynomial,
)

from conftest import PRESENTATIONS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pres(name):
    return str(PRESENTATIONS / name)


def test_parse_weyl_presentation():
    p = parse_presentation("field Q\ngenerators x < y\nrule y*x -> x*y + 1\n")
    assert p.field == FieldDescriptor()
    assert p.alphabet.symbols == ("x", "y")
    assert len(p.system.rules) == 1


def test_parse_prime_field():
    p = parse_presentation("field F 7\ngenerators a\nrule a*a -> 3*a\n")
    assert p.field.modulus == 7


def test_parse_weights_and_comments():
    p = parse_presentation(
        "# comment\nfield Q\ngenerators x < y\nweight y 2\n"
        "rule y -> x*x  # tail comment\n")
    assert p.alphabet.weights == (1, 2)


def test_parse_missing_lhs():
    with pytest.raises(PresentationError):
        parse_presentation("field Q\ngenerators x\nrule -> x\n")


def test_parse_empty_lhs():
    with pytest.raises(PresentationError):
        parse_presentation("field Q\ngenerators x\nrule 1 -> x\n")


def test_parse_unknown_directive():
    with pytest.raises(PresentationError) as err:
        parse_presentation("field Q\ngenerators x\nfoo bar\n")
    assert err.value.line == 3


def test_parse_unknown_generator():
    with pytest.raises(PresentationError):
        parse_presentation("field Q\ngenerators x\nrule x*q -> x\n")


def test_parse_duplicate_generator():
    with pytest.raises(PresentationError):
        parse_presentation("field Q\ngenerators x < x\n")


def test_parse_nonprime_modulus():
    with pytest.raises(PresentationError):
        parse_presentation("field F 8\ngenerators x\n")


@pytest.mark.parametrize("name", ["weyl.pres", "commuting3.pres",
                                  "commuting4.pres", "sl2.pres",
                                  "dup_lhs.pres", "aba.pres"])
def test_presentation_roundtrip(name):
    text = (PRESENTATIONS / name).read_text()
    p = parse_presentation(text)
    again = parse_presentation(format_presentation(p))
    assert again == p


@st.composite
def presentations(draw):
    """Q or F 7, 1-3 generators with names of 1-3 characters and weights
    1-3, up to 3 rules with random right sides."""
    field = draw(st.sampled_from([FieldDescriptor(), FieldDescriptor(7)]))
    names = tuple(draw(st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,2}", fullmatch=True),
                                min_size=1, max_size=3, unique=True)))
    weights = tuple(draw(st.integers(1, 3)) for _ in names)
    alphabet = Alphabet(names, weights)
    words = st.lists(st.integers(0, len(names) - 1), max_size=3).map(
        lambda letters: Word(alphabet, tuple(letters)))
    values = (st.fractions(min_value=-50, max_value=50, max_denominator=8)
              if field.is_rationals else st.integers(0, 6))
    polynomials = st.lists(st.tuples(words, values), max_size=4).map(
        lambda terms: sum((Polynomial.monomial(w, field.coeff(c)) for w, c in terms),
                          Polynomial.zero(field, alphabet)))
    rules = draw(st.lists(st.tuples(words.filter(lambda w: not w.is_one()), polynomials),
                          max_size=3))
    system = ReductionSystem(alphabet, field, tuple(Rule(w, f) for w, f in rules))
    p = Presentation(field, alphabet, OrderingSpec(alphabet, names), system)
    return p, draw(polynomials)


@given(presentations())
def test_polynomial_format_parse_roundtrip(case):
    p, poly = case
    for spec in (p.ordering, None):
        assert parse_polynomial(format_polynomial(poly, spec), p.field, p.alphabet) == poly


@given(presentations())
def test_presentation_format_parse_roundtrip(case):
    p, _ = case
    assert parse_presentation(format_presentation(p)) == p


@pytest.mark.parametrize("generators", ["a*b < c", "x-y < z", "2 < x"])
def test_generator_names_the_grammar_cannot_read_are_refused(capsys, tmp_path, generators):
    path = tmp_path / "bad.pres"
    path.write_text(f"field Q\ngenerators {generators}\nrule x*x -> 0\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: line 2: bad generator list")


@given(st.lists(st.from_regex(GENERATOR, fullmatch=True), min_size=1, max_size=4,
                unique=True))
def test_every_name_the_grammar_reads_round_trips(names):
    alphabet = Alphabet(tuple(names))
    last = Word(alphabet, (len(names) - 1,))
    rhs = Polynomial.monomial(Word(alphabet, (0,)), FieldDescriptor().one())
    system = ReductionSystem(alphabet, FieldDescriptor(), (Rule(last * last, rhs),))
    p = Presentation(FieldDescriptor(), alphabet, OrderingSpec(alphabet, tuple(names)),
                     system)
    assert parse_presentation(format_presentation(p)) == p


# Every subcommand in both formats on the shipped presentations and a few
# small files: exit code, stdout and stderr, byte for byte.
TRANSCRIPT = json.loads((pathlib.Path(__file__).parent / "cli_transcript.json")
                        .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", TRANSCRIPT["cases"],
                         ids=lambda case: " ".join(case["argv"][1:]))
def test_cli_transcript(capsys, tmp_path, monkeypatch, case):
    for path in PRESENTATIONS.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    for name, text in TRANSCRIPT["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps --help at
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", pres("weyl.pres"))
    assert code == 0
    assert "0 ambiguities, confluent" in out
    code, out, _ = run(capsys, "check", pres("dup_lhs.pres"))
    assert code == 1
    assert "NOT resolvable" in out


@pytest.mark.parametrize("name,line", [
    ("aba.pres", "  overlap at a*b*a*b*a: NOT resolvable (nf_left b*b*a, nf_right a*b*b)"),
    ("dup_lhs.pres", "  inclusion at a*b: NOT resolvable (nf_left a, nf_right b)"),
], ids=["aba", "dup_lhs"])
def test_check_prints_the_witness_of_an_unresolvable_ambiguity(capsys, name, line):
    code, out, _ = run(capsys, "check", pres(name))
    assert (code, out) == (1, f"1 ambiguities, not confluent\n{line}\n")
    code, out, _ = run(capsys, "--format", "structured", "check", pres(name))
    amb = json.loads(out)["ambiguities"][0]
    assert f"(nf_left {amb['nf_left']}, nf_right {amb['nf_right']})" in line


def test_check_incompatible_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("field Q\ngenerators x\nrule x -> x*x\n")
    code, _, _ = run(capsys, "check", str(bad))
    assert code == 2


INCOMPATIBLE = "field Q\ngenerators x < y\nrule x*y -> y*x\n"


@pytest.mark.parametrize("argv", [
    ("check",), ("nf", "x*y"), ("mul", "x", "y"), ("member", "x"),
    ("basis", "--max-degree", "2"), ("independent", "SELF")],
    ids=["check", "nf", "mul", "member", "basis", "independent"])
def test_every_command_exits_2_on_an_incompatible_system(capsys, tmp_path, argv):
    path = tmp_path / "incompatible.pres"
    path.write_text(INCOMPATIBLE)
    argv = [str(path) if a == "SELF" else a for a in argv]
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    if argv[0] == "check":
        assert out == "incompatible: rule 0 monomial y*x\n"
    else:
        assert (out, err) == ("", "error: system not compatible with the ordering: "
                                  "rule 0 monomial y*x\n")


@pytest.mark.parametrize("command", ["check", "independent", "graph"])
def test_a_file_that_is_not_utf8_exits_3_naming_it(capsys, tmp_path, command):
    good, bad = tmp_path / "good.pres", tmp_path / "bad.txt"
    good.write_text("field Q\ngenerators x < y\nrule y*x -> x*y\n")
    line = b"a -> \xff\n" if command == "graph" else b"rule y*x -> \xff*x*y\n"
    bad.write_bytes(b"field Q\ngenerators x < y\n" + line)
    argv = {"check": ["check", str(bad)], "graph": ["graph", str(bad)],
            "independent": ["independent", str(good), str(bad)]}[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {bad}: ") and "0xff" in err and "Traceback" not in err


def test_nf_command(capsys):
    code, out, _ = run(capsys, "nf", pres("weyl.pres"), "y*x*y*x")
    assert code == 0
    assert out.strip() == "x*x*y*y + 3*x*y + 1"


def test_nf_trace_golden(capsys):
    code, out, _ = run(capsys, "nf", pres("weyl.pres"), "y*x", "--trace")
    assert code == 0
    assert out.splitlines() == ["x*y + 1", "1 | 0 | 1 | 1"]


def test_mul_command(capsys):
    code, out, _ = run(capsys, "mul", pres("weyl.pres"), "y", "x")
    assert code == 0
    assert out.strip() == "x*y + 1"


def test_member_command(capsys):
    code, out, _ = run(capsys, "member", pres("weyl.pres"), "y*x - x*y - 1")
    assert code == 0
    assert out.strip() == "member"


def test_basis_command(capsys):
    code, out, _ = run(capsys, "basis", pres("weyl.pres"), "--max-degree", "2")
    assert code == 0
    assert out.split() == ["1", "x", "y", "x*x", "x*y", "y*y"]


def test_ambiguities_command(capsys):
    code, out, _ = run(capsys, "ambiguities", pres("sl2.pres"))
    assert code == 0
    assert "overlap" in out and "h*f*e" in out


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", pres("dup_lhs.pres"), "a*b")
    assert code == 0
    assert out.split() == ["a", "b"]


def test_oracle_budget_exit_code(capsys):
    code, _, err = run(capsys, "oracle", pres("weyl.pres"),
                       "y^6*x^6", "--budget", "100")
    assert code == 4
    assert "budget" in err


def test_oracle_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("NCREWRITE_ORACLE_BUDGET", "100")
    code, _, _ = run(capsys, "oracle", pres("weyl.pres"), "y^6*x^6")
    assert code == 4


def test_oracle_budget_env_var_not_integer(capsys, monkeypatch):
    monkeypatch.setenv("NCREWRITE_ORACLE_BUDGET", "abc")
    code, _, err = run(capsys, "oracle", pres("weyl.pres"), "y*x")
    assert code == 3
    assert err.startswith("error:") and "NCREWRITE_ORACLE_BUDGET" in err


def test_oracle_negative_budget_is_usage_error(capsys):
    code, out, err = run(capsys, "oracle", pres("weyl.pres"), "y*x", "--budget", "-5")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "--budget" in err


def test_basis_negative_degree_is_usage_error(capsys):
    code, out, err = run(capsys, "basis", pres("weyl.pres"), "--max-degree", "-1")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "--max-degree" in err


@pytest.mark.parametrize("argv,code", [
    (["no-such-command"], 3),
    (["check"], 3),
    (["--help"], 0),
    (["nf", "--help"], 0),
    (["oracle", pres("weyl.pres"), "y*x", "--budget", "-5"], 3),
    (["oracle", pres("weyl.pres"), "x", "--budget", "-5"], 3),
])
def test_argparse_exit_codes(capsys, argv, code):
    assert run(capsys, *argv)[0] == code


def test_simplify_command(capsys):
    code, out, _ = run(capsys, "simplify", pres("dup_lhs.pres"))
    assert code == 0
    simplified = parse_presentation(out)
    assert len(simplified.system.rules) == 1


def test_independent_command(capsys, tmp_path):
    subset = tmp_path / "subset.pres"
    subset.write_text("field Q\ngenerators x < y\n")
    code, out, _ = run(capsys, "independent", pres("weyl.pres"), str(subset))
    assert code == 0
    assert "strict inclusion certified" in out


def test_independent_mismatched_subset_names_both_files(capsys, tmp_path):
    # a subset over other generators is a usage error, not a fault at some line
    subset = tmp_path / "subset.pres"
    subset.write_text("field Q\ngenerators a < b\n")
    code, out, err = run(capsys, "independent", pres("weyl.pres"), str(subset))
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "line" not in err
    assert str(subset) in err and pres("weyl.pres") in err


def test_graph_command(capsys):
    code, out, _ = run(capsys, "graph", pres("diamond.graph"))
    assert code == 0
    assert "sink d" in out
    code, out, _ = run(capsys, "graph", pres("fork.graph"))
    assert code == 1
    assert "diamond condition fails at a" in out


def test_structured_output(capsys):
    code, out, _ = run(capsys, "--format", "structured",
                       "check", pres("sl2.pres"))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "confluent"
    assert data["ambiguities"][0]["D"] == "h*f*e"
    assert data["ambiguities"][0]["resolvable"] is True


def test_huge_modulus_exit_code(capsys, tmp_path):
    big = tmp_path / "big.pres"
    big.write_text("field F 10000000000000000000000013\ngenerators x\n")
    code, _, err = run(capsys, "check", str(big))
    assert code == 3
    assert err.startswith("error: line 1:") and "3317044064679887385961981" in err


def test_ring_refusal_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "mul", pres("dup_lhs.pres"), "a", "b")
    assert code == 1
    assert "not confluent" in err
    subset = tmp_path / "subset.pres"
    subset.write_text("field Q\ngenerators x < y\nrule y -> x\n")
    code, _, err = run(capsys, "independent", pres("weyl.pres"), str(subset))
    assert code == 1
    assert "must occur in the full system" in err


@pytest.mark.parametrize("expr", ["q*x", "1/7", "9" * 5000, "x^1000001"])
def test_bad_expression_exit_code(capsys, tmp_path, expr):
    f7 = tmp_path / "f7.pres"
    f7.write_text("field F 7\ngenerators x\n")
    code, _, err = run(capsys, "nf", str(f7), expr)
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("line", ["weight x \u00b2", "weight x " + "9" * 5000,
                                  "weight q 2", "weight x 0"])
def test_malformed_weight_exit_code(capsys, tmp_path, line):
    path = tmp_path / "w.pres"
    path.write_text(f"field Q\ngenerators x < y\n{line}\nrule y*x -> x*y + 1\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: line 3:")


def test_duplicate_weight_exit_code(capsys, tmp_path):
    path = tmp_path / "w.pres"
    path.write_text("field Q\ngenerators x < y\nweight y 2\nweight y 3\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: line 4:")


@pytest.mark.parametrize("expr", ["3^9100", "2/7^6000 + x"])
def test_power_over_digit_limit_exit_code(capsys, expr):
    # over Q the power is refused before printing it would fail
    code, out, err = run(capsys, "nf", pres("weyl.pres"), expr)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "digits" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no integer digit limit")
@pytest.mark.parametrize("argv", [
    ("nf", "9^4000*9^4000"),
    ("nf", "9^4000*9^4000*y*x", "--trace"),
    ("mul", "9^4000", "9^4000"),
])
def test_output_coefficient_over_digit_limit_exit_code(capsys, argv):
    # each factor passes the power check, the product's coefficient does not
    command, *rest = argv
    code, out, err = run(capsys, command, pres("weyl.pres"), *rest)
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    assert f"{sys.get_int_max_str_digits()} digits" in err


def test_parse_takes_linear_time():
    # 4,000 distinct words of 11 or 12 letters (~100 kB), and one word of
    # 20,000 letters: quadratic parsing took seconds on each
    p = parse_presentation("field Q\ngenerators x < y\n")
    words = [w for n in (11, 12) for w in itertools.product("xy", repeat=n)][:4000]
    text = " + ".join("*".join(w) for w in words)
    start = time.perf_counter()
    poly = parse_polynomial(text, p.field, p.alphabet)
    assert time.perf_counter() - start < 1
    assert len(poly.items()) == 4000
    text = "*".join("xy"[i % 3 == 0] for i in range(20_000))
    start = time.perf_counter()
    poly = parse_polynomial(text, p.field, p.alphabet)
    assert time.perf_counter() - start < 1
    assert [w.letters for w in poly.words()] == [tuple(int(i % 3 == 0)
                                                       for i in range(20_000))]


def test_power_is_built_directly():
    p = parse_presentation("field Q\ngenerators x < y\n")
    f7 = FieldDescriptor(7)
    assert parse_polynomial("2/3^3*y^2*x^0", p.field, p.alphabet) == \
        parse_polynomial("8/27*y*y", p.field, p.alphabet)
    assert parse_polynomial("3^5*x^2", f7, p.alphabet) == \
        parse_polynomial("5*x*x", f7, p.alphabet)
    assert parse_polynomial("0^0 + 0^2*x + x^0", p.field, p.alphabet) == \
        parse_polynomial("2", p.field, p.alphabet)
    start = time.perf_counter()
    power = parse_polynomial("y^20000", p.field, p.alphabet)
    assert time.perf_counter() - start < 0.1
    assert [w.letters for w in power.words()] == [(1,) * 20000]


@pytest.mark.parametrize("expr", [f"y^{MAX_POWER_LETTERS + 1}", "7^2000000"])
def test_power_refused_before_it_is_built(expr):
    # built, y^1000001 would hold 8 MB of letters and 7^2000000 ~700 kB of digits
    p = parse_presentation("field Q\ngenerators x < y\n")
    tracemalloc.start()
    try:
        with pytest.raises(ExpressionError):
            parse_polynomial(expr, p.field, p.alphabet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert parse_polynomial(f"y^{MAX_POWER_LETTERS}", p.field, p.alphabet)


@pytest.mark.parametrize("expr,column", [
    ("x^1000000*x", 11),          # one term
    ("x^600000*x^600000", 10),    # two powers in one term
    ("x^600000 + y^600000", 12),  # summed over the terms
])
def test_letters_bounded_over_the_whole_expression(capsys, expr, column):
    p = parse_presentation("field Q\ngenerators x < y\n")
    with pytest.raises(ExpressionError) as err:
        parse_polynomial(expr, p.field, p.alphabet)
    assert err.value.column == column  # the factor that crosses the bound
    code, _, err_text = run(capsys, "nf", pres("weyl.pres"), expr)
    assert code == 3
    assert err_text.startswith(f"error: column {column}:")


def test_letter_bound_refuses_before_the_letters_are_built():
    # 29 characters that would ask for a 3,000,000-letter word (56 MB traced)
    p = parse_presentation("field Q\ngenerators x < y\n")
    tracemalloc.start()
    try:
        with pytest.raises(ExpressionError) as err:
            parse_polynomial("x^1000000*x^1000000*x^1000000", p.field, p.alphabet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.column == 11
    # the first factor's 10**6 letters, as its tuple and in the term (16 MB)
    assert peak < 20_000_000


VALID_PRESENTATION = ["field Q", "generators x < y", "weight y 2", "rule y*x -> x*y + 1"]
# text within one line: no comment mark, nothing str.splitlines breaks at
_LINE_TEXT = st.text(max_size=16).map(lambda t: t.replace("#", "")).filter(
    lambda t: len(("." + t + ".").splitlines()) == 1)


def _valid_weight(name, text):
    parts = text.split()
    return (name != "q" and len(parts) == 1 and parts[0].isdecimal()
            and int(parts[0]) >= 1)


_MALFORMED_LINES = st.one_of(
    st.tuples(st.sampled_from(["x", "y", "q"]), _LINE_TEXT)
    .filter(lambda t: not _valid_weight(*t)).map(lambda t: f"weight {t[0]} {t[1]}"),
    st.just("weight x " + "9" * 5000),
    _LINE_TEXT.map(lambda t: "field " + t),        # a second field directive
    _LINE_TEXT.map(lambda t: "generators " + t),   # a second generators directive
    _LINE_TEXT.filter(lambda t: "->" not in t).map(lambda t: "rule " + t),
    # a right side cut short after an operator, possibly behind a huge power
    st.tuples(st.sampled_from(["y*x", "x", "2*x", "z", "1"]),
              st.text("xyz0123456789+-*/^ ", max_size=12),
              st.sampled_from(["^", "*", "+", "/", "^x"]))
    .map(lambda t: f"rule {t[0]} -> {t[1]}{t[2]}"),
    st.from_regex(r"[A-Za-z_]{1,10}", fullmatch=True)
    .filter(lambda h: h not in ("field", "generators", "weight", "rule"))
    .map(lambda h: h + " x"),
)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_MALFORMED_LINES, st.integers(2, len(VALID_PRESENTATION)))
def test_malformed_directive_fuzz(capsys, tmp_path, line, at):
    lines = list(VALID_PRESENTATION)
    lines.insert(at, line)
    path = tmp_path / "fuzz.pres"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: line {at + 1}:")


def test_malformed_graph_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("a -> b\n -> c\n")
    code, out, err = run(capsys, "graph", str(bad))
    assert (code, out) == (3, "")
    assert err.startswith("error: line 2:")


@pytest.mark.parametrize("line", ["a -> b -> c", "a b -> c"])
@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_graph_edge_line_with_two_arrows_or_a_blank_exits_3(capsys, tmp_path, line, fmt):
    bad = tmp_path / "bad.graph"
    bad.write_text(f"# an edge line holds one arrow between two names\n{line}\n")
    code, out, err = run(capsys, "--format", fmt, "graph", str(bad))
    assert (code, out) == (3, "")
    assert err == f"error: line 2: malformed edge {line!r}\n"


def test_internal_error_exit_code(capsys, monkeypatch):
    def fault(*args):
        raise RuntimeError("injected fault")
    monkeypatch.setattr("ncrewrite.cli.normal_form", fault)
    code, out, err = run(capsys, "nf", pres("weyl.pres"), "y*x")
    assert (code, out) == (5, "")
    assert "Traceback" in err and "RuntimeError: injected fault" in err


def test_graph_fault_is_not_bad_input(capsys, monkeypatch):
    # a fork whose diamond check is made to pass reaches two sinks: a fault
    monkeypatch.setattr("ncrewrite.arw.check_local_diamond",
                        lambda graph: DiamondResult(True, None))
    code, out, err = run(capsys, "graph", pres("fork.graph"))
    assert (code, out) == (5, "")
    assert "Traceback" in err and "AssertionError: a reaches 2 sinks" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "no-such-file.pres")
    assert code == 3
    assert err
