"""Result records are immutable named tuples that the package builds with no
generated code; the value types with validation or operators are not tuples."""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from ncrewrite.ambiguity import (
    Ambiguity,
    AmbiguityVerdict,
    CertificateTerm,
    ConfluenceReport,
    RelativeVerdict,
)
from ncrewrite.arw import (
    ComponentVerdict,
    DiamondResult,
    NewmanVerdict,
    OrientedGraph,
    TerminationResult,
)
from ncrewrite.cli import Presentation
from ncrewrite.coeff import RATIONALS, Coefficient, FieldDescriptor
from ncrewrite.freealg import Alphabet, Occurrence, Word
from ncrewrite.order import CompatibilityReport, OrderingSpec
from ncrewrite.quotient import IndependenceVerdict, QuotientRing
from ncrewrite.rewrite import NormalFormResult, ReductionStep, ReductionSystem, Rule

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# each record with its fields in the order of the dataclass it replaced
RECORDS = {
    Ambiguity: "kind sigma tau a b c",
    AmbiguityVerdict: "ambiguity branch_left branch_right nf_left nf_right",
    CertificateTerm: "prefix rule suffix coefficient",
    RelativeVerdict: "resolvable certificate",
    ConfluenceReport: "compatibility verdicts relative_agrees",
    TerminationResult: "terminating cycle",
    DiamondResult: "holds failing_vertex",
    ComponentVerdict: "vertices sink",
    NewmanVerdict: "ok failure witness components",
    Presentation: "field alphabet ordering system",
    Occurrence: "prefix rule suffix",
    CompatibilityReport: "compatible violations",
    QuotientRing: "system spec report",
    IndependenceVerdict: "strict witness independent_rules",
    Rule: "lhs rhs",
    ReductionStep: "occurrence coefficient",
    NormalFormResult: "value trace",
}
VALUE_TYPES = (Alphabet, Word, FieldDescriptor, Coefficient, OrderingSpec,
               ReductionSystem, OrientedGraph)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_named_tuple(cls):
    fields = RECORDS[cls].split()
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert all(c.__dict__.get("__slots__") == () for c in cls.__mro__[:-2])
    assert cls._fields == tuple(fields)
    record = cls(**{name: i for i, name in enumerate(fields)})
    assert record == tuple(range(len(fields)))
    assert [getattr(record, name) for name in fields] == list(range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], -1)
    with pytest.raises(AttributeError):
        record.extra = -1


def test_relative_agrees_defaults_to_none():
    report = CompatibilityReport(True, ())
    assert ConfluenceReport(report, ()).relative_agrees is None


def test_value_types_are_not_tuples():
    alphabet = Alphabet(("x",))
    word = alphabet.word("x", "x")
    assert not any(issubclass(cls, tuple) for cls in VALUE_TYPES)
    assert all(dataclasses.is_dataclass(cls) for cls in VALUE_TYPES)
    assert word != word.letters
    assert word * word == alphabet.word("x", "x", "x", "x")
    with pytest.raises(TypeError):
        3 * RATIONALS.coeff(2)


def test_dataclasses_imported_only_beside_a_value_type():
    defining = {cls.__module__.rsplit(".", 1)[1] + ".py" for cls in VALUE_TYPES}
    importing = set()
    for path in (SRC / "ncrewrite").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses" \
                    or isinstance(node, ast.Import) \
                    and any(a.name == "dataclasses" for a in node.names):
                importing.add(path.name)
    assert importing == defining


def test_cold_cli_import_leaves_out_typing():
    # -S: no site packages, whose start-up files may import typing themselves
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); import ncrewrite.cli; "
         "print(sorted({'typing', 'ncrewrite.cli'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['ncrewrite.cli']"
