"""Result records are immutable named tuples that the package builds with no
generated code; the value types with validation or operators are not tuples
but plain immutable classes that compare and hash by their fields."""

import ast
import copy
import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

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
from ncrewrite.freealg import Alphabet, Occurrence, Polynomial, Word
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


# each value type with the arguments of one value, which are its fields in order
VALUE_ARGS = {
    Alphabet: (("x", "y"), (1, 2)),
    Word: (Alphabet(("x",)), (0, 0)),
    FieldDescriptor: (7,),
    Coefficient: (RATIONALS, Fraction(1, 2)),
    OrderingSpec: (Alphabet(("x", "y")), ("y", "x")),
    ReductionSystem: (Alphabet(("x",)), RATIONALS, (Rule(
        Alphabet(("x",)).word("x", "x"), Polynomial.zero(RATIONALS, Alphabet(("x",)))),)),
    OrientedGraph: (frozenset("ab"), frozenset({("a", "b")})),
}
VALUE_FIELDS = {
    Alphabet: "symbols weights",
    Word: "alphabet letters",
    FieldDescriptor: "modulus",
    Coefficient: "field value",
    OrderingSpec: "alphabet precedence",
    ReductionSystem: "alphabet field rules",
    OrientedGraph: "vertices edges",
}


def test_value_types_are_not_tuples():
    alphabet = Alphabet(("x",))
    word = alphabet.word("x", "x")
    assert not any(issubclass(cls, tuple) for cls in VALUE_TYPES)
    assert word != word.letters
    assert word * word == alphabet.word("x", "x", "x", "x")
    with pytest.raises(TypeError):
        3 * RATIONALS.coeff(2)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_compares_and_hashes_by_its_fields(cls):
    args, fields = VALUE_ARGS[cls], VALUE_FIELDS[cls].split()
    value, twin = cls(*args), cls(*args)
    assert not isinstance(value, tuple) and "__dict__" not in dir(value)
    assert tuple(getattr(value, name) for name in fields) == args
    assert value == twin and value is not twin
    assert hash(value) == hash(twin) == hash(args)  # as a frozen dataclass hashes
    assert value != args and value.__eq__(args) is NotImplemented
    assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={arg!r}" for name, arg in zip(fields, args)) + ")"


# the containers each value type stores immutable, given as a list or a set
MUTABLE_ARGS = {
    Alphabet: (["x", "y"], [1, 2]),
    OrderingSpec: (Alphabet(("x", "y")), ["y", "x"]),
    ReductionSystem: VALUE_ARGS[ReductionSystem][:2] + (list(VALUE_ARGS[ReductionSystem][2]),),
    OrientedGraph: (set("ab"), {("a", "b")}),
}


@pytest.mark.parametrize("cls", MUTABLE_ARGS, ids=lambda cls: cls.__name__)
def test_value_built_from_lists_equals_and_hashes_like_from_tuples(cls):
    value, frozen = cls(*MUTABLE_ARGS[cls]), cls(*VALUE_ARGS[cls])
    assert value == frozen and hash(value) == hash(frozen)
    assert tuple(getattr(value, name) for name in VALUE_FIELDS[cls].split()) == VALUE_ARGS[cls]
    assert hash(Alphabet(["x", "y"])) == hash(Alphabet(("x", "y")))


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_refuses_assignment_and_deletion(cls):
    value = cls(*VALUE_ARGS[cls])
    for name in VALUE_FIELDS[cls].split() + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*VALUE_ARGS[cls])


def test_values_differ_by_any_field():
    alphabet = Alphabet(("x", "y"))
    assert Alphabet(("x", "y"), (1, 2)) != Alphabet(("x", "y"))
    assert alphabet.word("x") != Alphabet(("x", "z")).word("x")
    assert FieldDescriptor(7).coeff(1) != RATIONALS.coeff(1)
    assert OrderingSpec(alphabet, ("x", "y")) != OrderingSpec(alphabet, ("y", "x"))
    assert repr(alphabet.word("y")) == \
        "Word(alphabet=Alphabet(symbols=('x', 'y'), weights=(1, 1)), letters=(1,))"


def test_no_module_imports_dataclasses():
    importing = set()
    for path in (SRC / "ncrewrite").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses" \
                    or isinstance(node, ast.Import) \
                    and any(a.name == "dataclasses" for a in node.names):
                importing.add(path.name)
    assert importing == set()


def test_cold_cli_import_leaves_out_typing():
    # -S: no site packages, whose start-up files may import these themselves
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); import ncrewrite.cli; "
         "print(sorted({'typing', 'dataclasses', 'inspect', 'ncrewrite.cli'} "
         "& set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['ncrewrite.cli']"
