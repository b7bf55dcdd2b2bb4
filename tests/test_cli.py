import json
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", pres("weyl.pres"))
    assert code == 0
    assert "0 ambiguities, confluent" in out
    code, out, _ = run(capsys, "check", pres("dup_lhs.pres"))
    assert code == 1
    assert "NOT resolvable" in out


def test_check_incompatible_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("field Q\ngenerators x\nrule x -> x*x\n")
    code, _, _ = run(capsys, "check", str(bad))
    assert code == 2


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


def test_basis_negative_degree_is_usage_error(capsys):
    code, out, err = run(capsys, "basis", pres("weyl.pres"), "--max-degree", "-1")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "--max-degree" in err


@pytest.mark.parametrize("argv,code", [
    (["no-such-command"], 3),
    (["check"], 3),
    (["--help"], 0),
    (["nf", "--help"], 0),
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


@pytest.mark.parametrize("expr", ["3^9100", "2/7^6000 + x"])
def test_power_over_digit_limit_exit_code(capsys, expr):
    # over Q the power is refused before printing it would fail
    code, out, err = run(capsys, "nf", pres("weyl.pres"), expr)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "digits" in err


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


def test_internal_error_exit_code(capsys, monkeypatch):
    def fault(*args):
        raise RuntimeError("injected fault")
    monkeypatch.setattr("ncrewrite.cli.normal_form", fault)
    code, out, err = run(capsys, "nf", pres("weyl.pres"), "y*x")
    assert (code, out) == (5, "")
    assert "Traceback" in err and "RuntimeError: injected fault" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "no-such-file.pres")
    assert code == 3
    assert err
