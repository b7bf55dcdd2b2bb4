"""Tests of the benchmark itself: seeded generators, reference checks,
tracing and the output contract.

    python3 -m pytest bench -q
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ncrewrite import ambiguity, arw, cli, coeff, freealg, order  # noqa: E402
from ncrewrite import quotient, rewrite, syntax  # noqa: E402

NC = SimpleNamespace(cli=cli, syntax=syntax, order=order, rewrite=rewrite,
                     ambiguity=ambiguity, quotient=quotient, freealg=freealg,
                     arw=arw, coeff=coeff)
Q = Fraction


def load(name):
    return cli.parse_presentation((ROOT / "presentations" / f"{name}.pres").read_text())


def data(poly):
    return workloads.poly_data(poly)


def perturbed(poly_data):
    """The same element with one coefficient changed."""
    terms = sorted(poly_data)
    word, c = terms[0]
    return frozenset(terms[1:] + [(word, c + 1)])


# -- generators ---------------------------------------------------------------

def _generated(workload, seed, tmp_path):
    workdir = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    ops = workloads.SETUPS[workload](NC, seed, str(workdir), str(ROOT))
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return [op.label for op in ops], files


@pytest.mark.parametrize("workload", sorted(workloads.SETUPS))
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = _generated(workload, 5, tmp_path)
    assert _generated(workload, 5, tmp_path) == first
    assert _generated(workload, 6, tmp_path) != first


def test_generated_inputs_have_the_verdicts_known_by_construction():
    rng = random.Random(1)
    names = workloads.random_names(rng, 5)
    p = cli.parse_presentation(workloads.commuting_text(rng, names, "Q"))
    report = ambiguity.check_all(p.system, p.ordering)
    assert report.confluent and len(report.verdicts) == 10
    grid = arw.parse_graph(workloads.grid_text(rng, 4, False)[0])
    assert arw.newman_verdict(grid).ok
    fork, expected = workloads.grid_text(rng, 4, True)
    verdict = arw.newman_verdict(arw.parse_graph(fork))
    assert (verdict.failure, verdict.witness) == ("diamond", expected["fork"])


# -- the references themselves ------------------------------------------------

def test_representations_satisfy_the_defining_relations():
    def rel(rep, left, right, size=3):
        return rep.evaluate([frozenset(left)], size) == rep.evaluate([frozenset(right)], size)

    for rep in ref.sl2_reps() + ref.sl2_reps(workloads.PRIME):
        k = rep.k
        assert rel(rep, [(("f", "e"), k(1))], [(("e", "f"), k(1)), (("h",), k(-1))])
        assert rel(rep, [(("h", "e"), k(1))], [(("e", "h"), k(1)), (("e",), k(2))])
        assert rel(rep, [(("h", "f"), k(1))], [(("f", "h"), k(1)), (("f",), k(-2))])
        assert not rel(rep, [(("f", "e"), k(1))], [(("e", "f"), k(1))])
    weyl = ref.weyl_rep()
    assert rel(weyl, [(("y", "x"), Q(1))], [(("x", "y"), Q(1)), ((), Q(1))])
    assert not rel(weyl, [(("y", "x"), Q(1))], [(("x", "y"), Q(1))])
    qplane = ref.qplane_rep(Q(3, 2))
    assert rel(qplane, [(("y", "x"), Q(1))], [(("x", "y"), Q(3, 2))])
    assert not rel(qplane, [(("y", "x"), Q(1))], [(("x", "y"), Q(1))])


def test_parse_poly_reads_the_cli_rendering():
    p = load("sl2")
    poly = syntax.parse_polynomial("-3/2*e*f*h + 2*e - 1 + h", p.field, p.alphabet)
    text = syntax.format_polynomial(poly, p.ordering)
    assert ref.parse_poly(text, {"e", "f", "h"}, ref.Scalars()) == data(poly)
    assert ref.parse_poly("0", {"e"}, ref.Scalars()) == frozenset()


# -- each reference check accepts the right answer and rejects a perturbed one

def test_normal_form_check():
    p = load("sl2")
    lhss = workloads.read_presentation((ROOT / "presentations/sl2.pres").read_text())["lhss"]
    word = ("h", "h", "f", "e")
    poly = syntax.parse_polynomial("3*h^2*f*e", p.field, p.alphabet)
    out = data(rewrite.normal_form(poly, p.system, p.ordering).value)
    factors = [frozenset([(word, Q(3))])]
    assert ref.check_normal_form(out, factors, lhss, ref.sl2_reps()) is None
    assert "acts differently" in ref.check_normal_form(
        perturbed(out), factors, lhss, ref.sl2_reps())
    assert "reducible" in ref.check_normal_form(
        frozenset([(word, Q(3))]), factors, lhss, ref.sl2_reps())

    w = load("weyl")
    poly = syntax.parse_polynomial("x + 2*y", w.field, w.alphabet)
    power = poly * poly * poly
    out = data(rewrite.normal_form(power, w.system, w.ordering).value)
    factors = [frozenset([(("x",), Q(1)), (("y",), Q(2))])] * 3
    assert ref.check_normal_form(out, factors, [("y", "x")], [ref.weyl_rep()]) is None
    assert ref.check_normal_form(perturbed(out), factors, [("y", "x")],
                                 [ref.weyl_rep()]) is not None


def test_product_check():
    p = load("sl2")
    ring = quotient.QuotientRing.build(p.system, p.ordering)
    a = syntax.parse_polynomial("2*h", p.field, p.alphabet)
    b = syntax.parse_polynomial("e*f", p.field, p.alphabet)
    out = data(ring.multiply(a, b))
    lhss = [("f", "e"), ("h", "e"), ("h", "f")]
    assert ref.check_product(out, data(a), data(b), lhss, ref.sl2_reps()) is None
    assert "differs" in ref.check_product(perturbed(out), data(a), data(b), lhss,
                                          ref.sl2_reps())


def test_basis_check():
    p = load("sl2")
    ring = quotient.QuotientRing.build(p.system, p.ordering)
    words = tuple(tuple(p.alphabet.symbols[i] for i in w.letters)
                  for w in ring.basis_words(4))
    info = workloads.read_presentation((ROOT / "presentations/sl2.pres").read_text())
    hilbert = ref.hilbert_commuting(3)
    assert ref.check_basis(words, 4, info["lhss"], info["ranks"], hilbert) is None
    dropped = words[:5] + words[6:]
    assert "Hilbert" in ref.check_basis(dropped, 4, info["lhss"], info["ranks"], hilbert)
    swapped = words[:1] + (("f", "e"),) + words[2:]
    assert ref.check_basis(swapped, 4, info["lhss"], info["ranks"], hilbert) is not None
    unsorted = words[1:2] + words[:1] + words[2:]
    assert "ascending" in ref.check_basis(unsorted, 4, info["lhss"], info["ranks"],
                                          hilbert)


def test_oracle_check():
    word = frozenset([(("y", "x"), Q(1))])
    nf = frozenset([(("x", "y"), Q(1)), ((), Q(1))])
    reps, lhss = [ref.weyl_rep()], [("y", "x")]
    assert ref.check_oracle(frozenset([nf]), nf, word, lhss, reps, True) is None
    assert ref.check_oracle(frozenset([nf, perturbed(nf)]), nf, word, lhss, reps,
                            True) is not None
    assert ref.check_oracle(frozenset([perturbed(nf)]), perturbed(nf), word, lhss,
                            reps, True) is not None
    forms = frozenset([frozenset([(("a",), Q(1))]), frozenset([(("b",), Q(1))])])
    a = frozenset([(("a",), Q(1))])
    assert ref.check_oracle(forms, a, None, [("a", "b")], [], False) is None
    assert "miss" in ref.check_oracle(forms, frozenset(), None, [("a", "b")], [], False)


def test_crosscheck_check():
    assert ref.check_crosscheck((True, True, 4), 4) is None
    assert ref.check_crosscheck((False, True, 4), 4) is not None
    assert ref.check_crosscheck((None, True, 4), 4) is not None
    assert ref.check_crosscheck((True, True, 3), 4) is not None


def test_confluence_cli_check(tmp_path):
    ops = workloads.setup_confluence(NC, 3, str(tmp_path), str(ROOT))
    for op in ops:
        assert op.check(op.call()) is None, op.label
    op = next(op for op in ops if "commuting6 over Q" in op.label)
    rc, out, err = op.call()
    doc = json.loads(out)
    doc["ambiguities"][0]["nf_left"] = doc["ambiguities"][0]["D"]
    assert op.check((rc, json.dumps(doc), err)) is not None
    doc = json.loads(out)
    doc["verdict"] = "not confluent"
    assert op.check((rc, json.dumps(doc), err)) is not None
    assert "exit 1" in op.check((1, "", "error: boom\n"))
    doc = json.loads(out)
    del doc["ambiguities"][0]
    assert op.check((rc, json.dumps(doc), err)) is not None


def test_graph_cli_check(tmp_path):
    rng = random.Random(4)
    for fork in (False, True):
        text, expected = workloads.grid_text(rng, 4, fork)
        path = tmp_path / "g.graph"
        path.write_text(text)
        result = workloads.run_cli(NC, ["graph", str(path)])
        assert ref.check_graph_cli(result, expected) is None
        wrong = dict(expected, sink="v0") if not fork else {"fork": "v0"}
        assert ref.check_graph_cli(result, wrong) is not None


# -- tracing ------------------------------------------------------------------

def _snapshot():
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "ncrewrite" or n.startswith("ncrewrite.")]
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (quotient.QuotientRing, freealg.Polynomial, freealg.Alphabet):
        state.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return state


def test_tracer_install_then_uninstall_restores_every_function():
    before = _snapshot()
    tracer = tracing.Tracer().install()
    try:
        assert ambiguity.normal_form is not before[("ncrewrite.ambiguity", "normal_form")]
        assert quotient.normal_form is ambiguity.normal_form
        assert rewrite.check_compatibility is order.check_compatibility
        p = load("commuting3")
        ring = quotient.QuotientRing.build(p.system, p.ordering)
        ring.basis_words(2)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    layers = {s[2] for s in tracer.spans}
    assert {"quotient.build", "rewrite.normal_form", "rewrite.validate_system",
            "ambiguity.check_resolvable", "quotient.basis_words"} <= layers
    by_id = {s[0]: s for s in tracer.spans}
    for sid, parent, layer, start, end, request, tag in tracer.spans:
        if layer == "rewrite.normal_form":
            assert by_id[parent][2] == "ambiguity.check_resolvable"
    metrics = tracing.layer_metrics(tracer.spans, tracer.candidates)
    assert metrics["quotient.basis_words.kept_ratio"] == 10 / 13


def test_self_time_subtracts_child_spans():
    spans = [(0, -1, "cli.main", 0, 100, "r", None),
             (1, 0, "rewrite.normal_form", 10, 40, "r", ["q", 3]),
             (2, 1, "rewrite.validate_system", 15, 25, "r", None),
             (3, 0, "rewrite.normal_form", 50, 70, "r", ["fp", 2])]
    m = tracing.layer_metrics(spans, 0)
    assert m["cli.main.self_s"] == 50 / 1e9
    assert m["rewrite.normal_form.self_s"] == 40 / 1e9
    assert m["rewrite.validate_system.self_s"] == 10 / 1e9
    assert m["rewrite.normal_form.steps"] == 5
    assert m["rewrite.normal_form.steps_per_s.q"] == 3 / (20 / 1e9)


# -- the output contract ------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_on_its_last_line(trace, kind):
    proc = _run(ROOT, "--workload", "confluence", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec[kind]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = _run(tmp_path, "--workload", "reduce", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_budget_overflow_fails_but_only_a_wrong_answer_is_incorrect(tmp_path):
    import run

    runner = run.Runner("verify", 1, tmp_path)
    ops = [workloads.Op("oracle_s", "right", None, workloads._identity, lambda d: None),
           workloads.Op("oracle_s", "wrong", None, workloads._identity, lambda d: "off"),
           workloads.Op("oracle_s", "over", None, workloads._identity, lambda d: None)]
    runner.judge(0, ops[0], 1, None)
    runner.judge(2, ops[2], None, rewrite.BudgetExceededError(10))
    assert (runner.attempted, runner.failed, runner.incorrect) == (2, 1, 0)
    runner.judge(1, ops[1], 1, None)
    assert (runner.attempted, runner.failed, runner.incorrect) == (3, 2, 1)
    assert runner.failures["over"][0] == "budget" and runner.failures["wrong"][0] == "wrong"


def test_probed_pass_brackets_every_operation_with_reference_work(tmp_path):
    import run

    runner = run.Runner("confluence", 1, tmp_path)
    ops = [workloads.Op("check_s", f"op{i}", lambda: 1, workloads._identity,
                        lambda d: None) for i in range(5)]
    times, references = runner.run_pass(ops, probe=True)
    assert len(times) == len(references) == 5 and min(references) > 0
    assert run.scaled_s(2_000_000, 4_000_000) == run.REFERENCE_S / 2
    assert runner.run_pass(ops)[1] == []


def test_compare_marks_spread_beyond_the_bound_unresolved(tmp_path, capsys):
    import run

    def record(seed, batch, q1, q3):
        m = {"value": batch, "unit": "s", "q1": q1, "q3": q3, "n": 3}
        return {"workload": "confluence", "seed": seed, "trace": 0,
                "metrics": {"setup_s": m, "batch_s": m, "peak_rss_mb": m},
                "phases": {"check_s": m}}

    (tmp_path / "base.json").write_text(json.dumps(record(1, 1.0, 0.99, 1.01)))
    (tmp_path / "new.json").write_text(json.dumps(record(1, 1.5, 0.5, 2.5)))
    run.compare(tmp_path / "base.json", tmp_path / "new.json")
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4 and all("ratio 1.5000" in r for r in rows)
    assert all(r.endswith("unresolved") for r in rows)
