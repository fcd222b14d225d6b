from __future__ import annotations

import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod import (
    AlgebraElement,
    AtomSet,
    GeneratorSet,
    ParseError,
    PrimeField,
    RationalField,
    ValidationError,
    parse_module_file,
    render_module_file,
)
from regmod.module_file import dump_json
from regmod.randgen import default_labels, random_generator_set, random_vector
from regmod.rng import SplitMix64
from test_golden_cli import CORPORA, build_corpus


def doc_fixture() -> dict:
    return {
        "field": {"kind": "fp", "p": 5},
        "atoms": ["q1", "q2", "q3"],
        "ambient_dim": 2,
        "generators": [
            [["1", "1", "1"], ["0", "0", "0"]],
            [["0", "0", "0"], ["1", "0", "1"]],
        ],
    }


def test_round_trip_fixture(fixture_gens):
    text = render_module_file(fixture_gens)
    parsed = parse_module_file(text)
    assert parsed == fixture_gens
    assert render_module_file(parsed) == text


def test_parse_fixture_document(fixture_gens):
    gens = parse_module_file(json.dumps(doc_fixture()))
    assert gens == fixture_gens
    assert gens.field == PrimeField(5)
    assert gens.context.labels == ("q1", "q2", "q3")


def test_render_layout():
    text = render_module_file(parse_module_file(json.dumps(doc_fixture())))
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == ["field", "atoms", "ambient_dim", "generators"]


def test_rational_scalars_canonicalized():
    doc = doc_fixture()
    doc["field"] = {"kind": "rational"}
    doc["generators"] = [[["4/6", "-2", "0"], ["1/3", "0", "7"]]]
    gens = parse_module_file(json.dumps(doc))
    text = render_module_file(gens)
    assert '"2/3"' in text
    assert gens.field == RationalField()


def test_bad_json_is_parse_error():
    with pytest.raises(ParseError) as info:
        parse_module_file("{not json")
    assert "line 1" in str(info.value)


def test_top_level_must_be_object():
    with pytest.raises(ParseError):
        parse_module_file("[1, 2]")


def test_missing_key():
    doc = doc_fixture()
    del doc["ambient_dim"]
    with pytest.raises(ParseError) as info:
        parse_module_file(json.dumps(doc))
    assert "ambient_dim" in str(info.value)


def test_composite_characteristic_rejected():
    doc = doc_fixture()
    doc["field"] = {"kind": "fp", "p": 4}
    with pytest.raises(ValidationError) as info:
        parse_module_file(json.dumps(doc))
    assert "4" in str(info.value)


def test_unknown_field_kind_rejected():
    doc = doc_fixture()
    doc["field"] = {"kind": "real"}
    with pytest.raises((ParseError, ValidationError)):
        parse_module_file(json.dumps(doc))


def test_duplicate_atoms_rejected():
    doc = doc_fixture()
    doc["atoms"] = ["q1", "q1", "q3"]
    with pytest.raises(ValidationError):
        parse_module_file(json.dumps(doc))


def test_wrong_row_length_rejected():
    doc = doc_fixture()
    doc["generators"][0][1] = ["0", "0"]
    with pytest.raises((ParseError, ValidationError)) as info:
        parse_module_file(json.dumps(doc))
    assert "generators" in str(info.value)


def test_wrong_coord_count_rejected():
    doc = doc_fixture()
    doc["generators"][1] = [["1", "0", "1"]]
    with pytest.raises((ParseError, ValidationError)):
        parse_module_file(json.dumps(doc))


def test_non_string_scalar_rejected():
    doc = doc_fixture()
    doc["generators"][0][0][2] = 1
    with pytest.raises(ParseError) as info:
        parse_module_file(json.dumps(doc))
    assert "generators[0][0]" in str(info.value)


def test_out_of_range_scalar_located():
    doc = doc_fixture()
    doc["generators"][1][0][1] = "7"
    with pytest.raises(ValidationError) as info:
        parse_module_file(json.dumps(doc))
    assert "generators[1][0][1]" in str(info.value)


def test_nonpositive_ambient_dim_rejected():
    doc = doc_fixture()
    doc["ambient_dim"] = 0
    with pytest.raises(ValidationError):
        parse_module_file(json.dumps(doc))


def test_empty_generator_list_allowed():
    doc = doc_fixture()
    doc["generators"] = []
    gens = parse_module_file(json.dumps(doc))
    assert len(gens) == 0
    assert parse_module_file(render_module_file(gens)) == gens


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_round_trip_random(seed):
    gens = random_generator_set(SplitMix64(seed), max_atoms=6, max_gens=4, max_ambient=4)
    text = render_module_file(gens)
    assert parse_module_file(text) == gens
    assert render_module_file(parse_module_file(text)) == text


def test_duplicate_top_level_key_rejected():
    text = json.dumps(doc_fixture())[:-1] + ', "ambient_dim": 2}'
    with pytest.raises(ParseError) as info:
        parse_module_file(text)
    assert "duplicate key 'ambient_dim'" in str(info.value)


def test_duplicate_nested_key_rejected():
    text = json.dumps(doc_fixture()).replace('"p": 5', '"p": 5, "p": 7')
    with pytest.raises(ParseError) as info:
        parse_module_file(text)
    assert "duplicate key 'p'" in str(info.value)


def test_unknown_top_level_key_rejected():
    doc = doc_fixture()
    doc["comment"] = "hello"
    with pytest.raises(ParseError) as info:
        parse_module_file(json.dumps(doc))
    assert "unknown key 'comment'" in str(info.value)


def test_unknown_field_key_rejected():
    doc = doc_fixture()
    doc["field"] = {"kind": "rational", "p": 5}
    with pytest.raises(ParseError) as info:
        parse_module_file(json.dumps(doc))
    assert "unknown key 'p'" in str(info.value)


@pytest.mark.parametrize("scalar", [" 3", "+2", "0_1", "٣"])
def test_non_ascii_or_padded_fp_scalar_located(scalar):
    doc = doc_fixture()
    doc["generators"][0][1][2] = scalar
    with pytest.raises(ValidationError) as info:
        parse_module_file(json.dumps(doc))
    assert "generators[0][1][2]" in str(info.value)


@pytest.mark.parametrize("scalar", [" 3", "+2", "0_1", "٣", "1/0", "1/-2"])
def test_bad_rational_scalar_located(scalar):
    doc = doc_fixture()
    doc["field"] = {"kind": "rational"}
    doc["generators"][1][0][0] = scalar
    with pytest.raises(ValidationError) as info:
        parse_module_file(json.dumps(doc))
    assert "generators[1][0][0]" in str(info.value)


def test_huge_modulus_is_parse_error():
    text = json.dumps(doc_fixture()).replace('"p": 5', '"p": ' + "1" * 5000)
    with pytest.raises(ParseError):
        parse_module_file(text)


def test_deep_nesting_is_parse_error():
    with pytest.raises(ParseError):
        parse_module_file("[" * 100000)


def test_valid_fp_file_parses_without_per_scalar_calls(f5, monkeypatch):
    context = AtomSet(default_labels(64))
    rng = SplitMix64(64)
    text = render_module_file(GeneratorSet(f5, context, 8, tuple(
        random_vector(f5, context, 8, rng) for _ in range(8))))
    grids = [[[int(s) for s in row] for row in grid] for grid in json.loads(text)["generators"]]
    expected = GeneratorSet.from_grids(f5, context, 8, grids)
    calls = {"parse": 0, "check": 0}
    for name in calls:
        original = getattr(PrimeField, name)

        def counting(self, value, name=name, original=original):
            calls[name] += 1
            return original(self, value)

        monkeypatch.setattr(PrimeField, name, counting)
    assert parse_module_file(text) == expected
    # parse_row validates each row; the parsed elements are not checked again
    assert calls == {"parse": 0, "check": 0}


def _check_raw(monkeypatch) -> list:
    """Make AlgebraElement._raw run the checks it skips; the list collects what it built."""
    built = []
    raw = AlgebraElement._raw.__func__

    def checking(cls, *fields):
        element = raw(cls, *fields)
        element.__post_init__()
        built.append(element)
        return element

    monkeypatch.setattr(AlgebraElement, "_raw", classmethod(checking))
    return built


@pytest.mark.parametrize("name", CORPORA)
def test_golden_inputs_pass_the_skipped_checks(name, tmp_path, monkeypatch):
    build_corpus(name, tmp_path)
    paths = sorted(tmp_path.glob("*.json"))
    assert len(paths) == 7
    built = _check_raw(monkeypatch)
    for path in paths:
        gens = parse_module_file(path.read_text(encoding="utf-8"))
        assert built[-1].field == gens.field and built[-1].context == gens.context


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_random_files_pass_the_skipped_checks(seed):
    gens = random_generator_set(SplitMix64(seed), max_atoms=6, max_gens=4, max_ambient=4)
    text = render_module_file(gens)
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = _check_raw(monkeypatch)
        assert parse_module_file(text) == gens
    assert len(built) == len(gens.gens) * gens.ambient_dim


def test_bad_scalar_after_valid_rows_located_by_fallback():
    doc = doc_fixture()
    doc["field"] = {"kind": "fp", "p": 2**61 - 1}
    doc["generators"][1][1] = ["1", str(2**61 - 1), "x" * 5000]
    with pytest.raises(ValidationError) as info:
        parse_module_file(json.dumps(doc))
    assert str(info.value).startswith("generators[1][1][1]: ")
    assert "out of range for modulus" in str(info.value)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**300), 2**300) | st.text(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


@pytest.mark.parametrize("value", [
    {}, [], [[]], [{}], {"a": {}, "b": []},
    [0, -1, 2**200, -(2**200), True, False, None],
    {'q"uote': "back\\slash", "ctl\x00\x1f\x7f": "tab\t\nline\r", "é": "ü😀\u2028\ud800"},
])
def test_dump_json_edge_values(value):
    assert dump_json(value) == json.dumps(value, indent=2)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_dump_json_equals_json_dumps_indent_2(value):
    assert dump_json(value) == json.dumps(value, indent=2)


def _lazy(value):
    """`value` with every list of strings replaced by a one-shot iterator over it."""
    if isinstance(value, dict):
        return {key: _lazy(item) for key, item in value.items()}
    if isinstance(value, list):
        if all(isinstance(item, str) for item in value):
            return iter(value)
        return [_lazy(item) for item in value]
    return value


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_dump_json_reads_rows_given_as_iterators(value):
    assert dump_json(_lazy(value)) == json.dumps(value, indent=2)


def test_dump_json_reads_a_map_once():
    lazy = {"row": map(str, range(3)), "rows": [map(str, "ab"), iter(())]}
    plain = {"row": ["0", "1", "2"], "rows": [["a", "b"], []]}
    assert dump_json(lazy) == json.dumps(plain, indent=2)


@pytest.mark.parametrize("value", [1.5, ("a",), {1: "a"}, b"a"])
def test_dump_json_rejects_what_regmod_never_writes(value):
    with pytest.raises(TypeError):
        dump_json(value)


def wide_module(field, atoms: int, seed: int = 1) -> GeneratorSet:
    """What `regmod gen --seed 1 --atoms <atoms> --ambient 8 --gens 8` builds."""
    rng = SplitMix64(seed)
    context = AtomSet(default_labels(atoms))
    return GeneratorSet(field, context, 8, tuple(random_vector(field, context, 8, rng) for _ in range(8)))


# sha256 of render_module_file's text, taken from the json.dumps(indent=2) renderer
WIDE_RENDER_PINS = [
    (PrimeField(5), 1024, "34e34dd490e8875ca37db40233cadbfe4946afae111b1fb5d40148107c028f28"),
    (RationalField(), 64, "b96dd1e2841f8b90a3b05109a263be12d5a9fd0c869fa50bf2b3d53d8b5f9740"),
]


@pytest.mark.parametrize("field, atoms, digest", WIDE_RENDER_PINS)
def test_wide_render_is_pinned(field, atoms, digest):
    text = render_module_file(wide_module(field, atoms))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_render_peak_memory_is_a_few_times_the_text():
    gens = wide_module(PrimeField(5), 1024)
    tracemalloc.start()
    try:
        text = render_module_file(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the text itself is counted: a writer that builds no document of rendered scalars stays near 2-4x
    assert peak <= 5 * len(text), peak / len(text)
