"""Behaviour of the frozen value records: construction, equality, hashing,
immutability, repr text and the validation each one runs on construction."""

from __future__ import annotations

import copy
import pickle

import pytest

from regmod import (
    AlgebraElement,
    AtomSet,
    EliminationTrace,
    FinitelyDimensionalReport,
    GeneratorSet,
    Idempotent,
    IndependenceResult,
    IsoMap,
    IsoPiece,
    LengthMismatchError,
    MembershipResult,
    ModuleVector,
    PartitionOfUnity,
    Passport,
    PassportEntry,
    PiecewiseBasis,
    PivotStep,
    PrimeField,
    RankProfile,
    RationalField,
    StepForm,
    StepTerm,
    ValidationError,
)
from regmod.verify import Property, PropertyResult

CTX = AtomSet(("q1", "q2"))
F5 = PrimeField(5)
E1, E2, FULL = Idempotent(CTX, 1), Idempotent(CTX, 2), Idempotent(CTX, 3)
A = AlgebraElement(F5, CTX, (1, 2))
V = ModuleVector((A,))
PART = PartitionOfUnity((FULL,))
ENTRY = PassportEntry(FULL, 1)
PP = Passport((ENTRY,))
PIECE = IsoPiece(FULL, 1, (V,), (V,), ((A,),))

R_CTX = "AtomSet(labels=('q1', 'q2'))"
R_F5 = "PrimeField(p=5)"
R_E1 = f"Idempotent(context={R_CTX}, mask=1)"
R_FULL = f"Idempotent(context={R_CTX}, mask=3)"
R_A = f"AlgebraElement(field={R_F5}, context={R_CTX}, values=(1, 2))"
R_V = f"ModuleVector(coords=({R_A},))"
R_PART = f"PartitionOfUnity(pieces=({R_FULL},))"
R_ENTRY = f"PassportEntry(piece={R_FULL}, rank=1)"
R_PP = f"Passport(entries=({R_ENTRY},))"
R_PIECE = (
    f"IsoPiece(piece={R_FULL}, rank=1, source_basis=({R_V},), "
    f"target_basis=({R_V},), gen_coords=(({R_A},),))"
)
R_LEN = "<built-in function len>"

# (record type, field names, field values, (index, other value) of one changed field, repr)
CASES = [
    (AtomSet, ("labels",), (("q1", "q2"),), (0, ("q1", "q3")), R_CTX),
    (Idempotent, ("context", "mask"), (CTX, 1), (1, 2), R_E1),
    (PartitionOfUnity, ("pieces",), ((FULL,),), (0, (E1, E2)), R_PART),
    (PrimeField, ("p",), (5,), (0, 7), R_F5),
    (RationalField, (), (), None, "RationalField()"),
    (AlgebraElement, ("field", "context", "values"), (F5, CTX, (1, 2)), (2, (1, 3)), R_A),
    (StepTerm, ("value", "piece"), (1, E1), (0, 2), f"StepTerm(value=1, piece={R_E1})"),
    (
        StepForm, ("terms",), ((StepTerm(1, E1),),), (0, (StepTerm(2, E1),)),
        f"StepForm(terms=(StepTerm(value=1, piece={R_E1}),))",
    ),
    (ModuleVector, ("coords",), ((A,),), (0, (A, A)), R_V),
    (
        GeneratorSet, ("field", "context", "ambient_dim", "gens"), (F5, CTX, 1, (V,)), (3, ()),
        f"GeneratorSet(field={R_F5}, context={R_CTX}, ambient_dim=1, gens=({R_V},))",
    ),
    (
        MembershipResult, ("contained", "coefficients", "witness_atom"), (True, (A,), None),
        (0, False), f"MembershipResult(contained=True, coefficients=({R_A},), witness_atom=None)",
    ),
    (
        IndependenceResult, ("independent", "witness_atom", "relation"), (False, "q1", (1, 4)),
        (1, "q2"), "IndependenceResult(independent=False, witness_atom='q1', relation=(1, 4))",
    ),
    (PassportEntry, ("piece", "rank"), (FULL, 1), (1, 2), R_ENTRY),
    (Passport, ("entries",), ((ENTRY,),), (0, (PassportEntry(FULL, 2),)), R_PP),
    (
        PivotStep, ("piece", "row", "col", "pivot_support"), (FULL, 0, 0, E1), (2, 1),
        f"PivotStep(piece={R_FULL}, row=0, col=0, pivot_support={R_E1})",
    ),
    (
        EliminationTrace, ("start", "steps", "leaves"), (FULL, (), ((FULL, 1),)), (2, ((FULL, 2),)),
        f"EliminationTrace(start={R_FULL}, steps=(), leaves=(({R_FULL}, 1),))",
    ),
    (
        PiecewiseBasis, ("partition", "bases"), (PART, ((V,),)), (1, ((),)),
        f"PiecewiseBasis(partition={R_PART}, bases=(({R_V},),))",
    ),
    (
        IsoPiece, ("piece", "rank", "source_basis", "target_basis", "gen_coords"),
        (FULL, 1, (V,), (V,), ((A,),)), (1, 2), R_PIECE,
    ),
    (
        IsoMap,
        (
            "field", "context", "source_ambient_dim", "target_ambient_dim", "partition",
            "pieces", "generator_images",
        ),
        (F5, CTX, 1, 1, PART, (PIECE,), (V,)),
        (6, (V, V)),
        f"IsoMap(field={R_F5}, context={R_CTX}, source_ambient_dim=1, target_ambient_dim=1, "
        f"partition={R_PART}, pieces=({R_PIECE},), generator_images=({R_V},))",
    ),
    (
        FinitelyDimensionalReport, ("passport", "decomposition", "independence_bound", "faithful"),
        (PP, "A^1", 1, True), (3, False),
        f"FinitelyDimensionalReport(passport={R_PP}, decomposition='A^1', "
        "independence_bound=1, faithful=True)",
    ),
    (
        RankProfile, ("context", "ranks"), (CTX, {"q1": 1, "q2": 0}), (1, {"q1": 1, "q2": 1}),
        f"RankProfile(context={R_CTX}, ranks={{'q1': 1, 'q2': 0}})",
    ),
    (
        Property, ("name", "generate", "check", "shrink", "describe"), ("p", len, len, len, len),
        (0, "q"),
        f"Property(name='p', generate={R_LEN}, check={R_LEN}, shrink={R_LEN}, describe={R_LEN})",
    ),
    (
        PropertyResult, ("name", "cases", "passed", "failure", "counterexample"),
        ("p", 5, 5, None, None), (2, 4),
        "PropertyResult(name='p', cases=5, passed=5, failure=None, counterexample=None)",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, change, text", CASES, ids=IDS)
def test_record_construction_by_position_and_keyword(cls, names, values, change, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, name) for name in names) == values
    if names:
        mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
        assert mixed == by_position
        with pytest.raises(TypeError):
            cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)


@pytest.mark.parametrize("cls, names, values, change, text", CASES, ids=IDS)
def test_record_equality_by_fields(cls, names, values, change, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    assert a != object()
    if change is not None:
        index, other = change
        changed = cls(*values[:index], other, *values[index + 1:])
        assert a != changed and not a == changed


@pytest.mark.parametrize("cls, names, values, change, text", CASES, ids=IDS)
def test_record_hash_follows_equality(cls, names, values, change, text):
    a, b = cls(*values), cls(*values)
    if cls is RankProfile:  # its ranks field is a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, names, values, change, text", CASES, ids=IDS)
def test_record_is_immutable(cls, names, values, change, text):
    record = cls(*values)
    name = names[0] if names else "anything"
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert tuple(getattr(record, n) for n in names) == values


@pytest.mark.parametrize("cls, names, values, change, text", CASES, ids=IDS)
def test_record_copies_and_pickles(cls, names, values, change, text):
    record = cls(*values)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


@pytest.mark.parametrize("cls, names, values, change, text", CASES, ids=IDS)
def test_record_repr(cls, names, values, change, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, change, text", CASES, ids=IDS)
def test_record_raw_equals_checked_construction(cls, names, values, change, text):
    raw = cls._raw(*values)
    assert type(raw) is cls and raw == cls(*values) and repr(raw) == text


def test_record_raw_skips_the_checks():
    with pytest.raises(ValidationError):
        AlgebraElement(F5, CTX, (1, 7))
    with pytest.raises(LengthMismatchError):
        AlgebraElement(F5, CTX, (1,))
    assert AlgebraElement._raw(F5, CTX, (1, 7)).values == (1, 7)
    assert AlgebraElement._raw(F5, CTX, (1,)).values == (1,)
    assert not hasattr(AlgebraElement, "_no_such_name")
    with pytest.raises(AttributeError, match="^type object 'AlgebraElement' has no attribute '_no_such_name'$"):
        AlgebraElement._no_such_name


def test_record_cases_cover_every_record_type():
    assert len(CASES) == len(set(IDS)) == 23


# the tuple[...] fields of each record type not covered by the checks above
LIST_FIELDS = {
    PartitionOfUnity: ("pieces",),
    GeneratorSet: ("gens",),
    EliminationTrace: ("steps", "leaves"),
    PiecewiseBasis: ("bases",),
    IsoPiece: ("source_basis", "target_basis", "gen_coords"),
    IsoMap: ("pieces", "generator_images"),
    StepForm: ("terms",),
}


def test_post_init_normalises_keyword_arguments():
    assert AtomSet(labels=["q1", "q2"]).labels == ("q1", "q2")
    assert ModuleVector(coords=[A]).coords == (A,)
    assert AlgebraElement(field=F5, context=CTX, values=[1, 2]) == A
    assert Passport(entries=[ENTRY]) == PP
    for cls, names, values, _change, _text in CASES:
        for name in LIST_FIELDS.get(cls, ()):
            kwargs = dict(zip(names, values))
            kwargs[name] = list(kwargs[name])
            record = cls(**kwargs)
            assert type(getattr(record, name)) is tuple, (cls.__name__, name)
            assert record == cls(*values)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: AtomSet(()), ValidationError),
        (lambda: AtomSet(labels=("q1", "q1")), ValidationError),
        (lambda: Idempotent(CTX, 4), ValidationError),
        (lambda: PartitionOfUnity((E1,)), ValidationError),
        (lambda: PrimeField(4), ValidationError),
        (lambda: AlgebraElement(F5, CTX, (1,)), LengthMismatchError),
        (lambda: AlgebraElement(F5, CTX, (1, 5)), ValidationError),
        (lambda: StepForm((StepTerm(1, E1), StepTerm(1, E2))), ValidationError),
        (lambda: ModuleVector(()), LengthMismatchError),
        (lambda: GeneratorSet(F5, CTX, 0, ()), LengthMismatchError),
        (lambda: PassportEntry(Idempotent(CTX, 0), 1), ValidationError),
        (lambda: Passport((PassportEntry(E1, 2), PassportEntry(E2, 1))), ValidationError),
        (lambda: PiecewiseBasis(PART, ()), ValidationError),
        (lambda: RankProfile(CTX, {"q1": 1}), ValidationError),
    ],
    ids=[
        "AtomSet-empty", "AtomSet-duplicate", "Idempotent", "PartitionOfUnity", "PrimeField",
        "AlgebraElement-length", "AlgebraElement-scalar", "StepForm", "ModuleVector",
        "GeneratorSet", "PassportEntry", "Passport", "PiecewiseBasis", "RankProfile",
    ],
)
def test_record_post_init_validates(build, error):
    with pytest.raises(error):
        build()
