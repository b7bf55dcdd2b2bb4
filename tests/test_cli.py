import json

import pytest

from ncrewrite.cli import (
    PresentationError,
    format_presentation,
    main,
    parse_presentation,
)
from ncrewrite.coeff import FieldDescriptor

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
                       "y*y*y*x*x*x", "--budget", "100")
    assert code == 4
    assert "budget" in err


def test_oracle_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("NCREWRITE_ORACLE_BUDGET", "100")
    code, _, _ = run(capsys, "oracle", pres("weyl.pres"), "y*y*y*x*x*x")
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


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "no-such-file.pres")
    assert code == 3
    assert err
