from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import regmod
import regmod.classification
from regmod import parse_module_file, render_module_file
from regmod.cli import _print_json, main


FIXTURE_DOC = """{
  "field": {"kind": "fp", "p": 5},
  "atoms": ["q1", "q2", "q3"],
  "ambient_dim": 2,
  "generators": [
    [["1", "1", "1"], ["0", "0", "0"]],
    [["0", "0", "0"], ["1", "0", "1"]]
  ]
}
"""


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(FIXTURE_DOC)
    return str(path)


def write_doc(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def gen_to_file(tmp_path, name, seed, atoms=3, ambient=2, gens=2, field="fp:5", capsys=None):
    assert main([
        "gen", "--seed", str(seed), "--atoms", str(atoms),
        "--ambient", str(ambient), "--gens", str(gens), "--field", field,
    ]) == 0
    text = capsys.readouterr().out
    return write_doc(tmp_path, name, text), text


def test_gen_deterministic(tmp_path, capsys):
    _, first = gen_to_file(tmp_path, "a.json", 42, capsys=capsys)
    _, second = gen_to_file(tmp_path, "b.json", 42, capsys=capsys)
    assert first == second
    _, third = gen_to_file(tmp_path, "c.json", 43, capsys=capsys)
    assert third != first


def test_gen_round_trips(tmp_path, capsys):
    path, text = gen_to_file(tmp_path, "m.json", 7, atoms=4, ambient=3, gens=3,
                             field="rational", capsys=capsys)
    gens = parse_module_file(text)
    assert render_module_file(gens) == text


def test_gen_rejects_bad_args(capsys):
    assert main(["gen", "--seed", "1", "--atoms", "3", "--ambient", "2",
                 "--gens", "0", "--field", "fp:5"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["gen", "--seed", "1", "--atoms", "3", "--ambient", "2",
                 "--gens", "2", "--field", "fp:4"]) == 2
    assert "4" in capsys.readouterr().err
    assert main(["gen", "--seed", "1", "--atoms", "3", "--ambient", "2",
                 "--gens", "2", "--field", "f2"]) == 2
    assert "field argument" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["fp: 5", "fp:+5", "fp:٥", "fp:5_0", "fp:" + "7" * 5000],
                         ids=["space", "plus", "arabic-indic", "underscore", "5000-digits"])
def test_gen_field_modulus_grammar(field, capsys):
    assert main(["gen", "--seed", "1", "--atoms", "1", "--ambient", "1",
                 "--gens", "1", "--field", field]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err) < 200


def test_gen_field_modulus_accepts_digits(capsys):
    assert main(["gen", "--seed", "1", "--atoms", "1", "--ambient", "1",
                 "--gens", "1", "--field", "fp:5"]) == 0
    assert json.loads(capsys.readouterr().out)["field"] == {"kind": "fp", "p": 5}


def test_gen_draws_scalars_past_64_bits_in_a_wide_field(capsys):
    assert main(["gen", "--seed", "1", "--atoms", "256", "--ambient", "4", "--gens", "4",
                 "--field", "fp:1000000000000000000000007"]) == 0
    doc = json.loads(capsys.readouterr().out)
    scalars = [int(s) for g in doc["generators"] for row in g for s in row]
    assert len(scalars) == 4096 and max(scalars) >= 2**64


@pytest.mark.parametrize("field, scalar", [
    ('{"kind": "fp", "p": 5}', "1" * 5000),
    ('{"kind": "fp", "p": 5}', "x" * 5000),
    ('{"kind": "rational"}', "1" * 5000),
    ('{"kind": "rational"}', "1/" + "0" * 5000),
], ids=["fp-digits", "fp-letters", "rational-digits", "rational-zero-denominator"])
def test_long_scalar_error_is_short(tmp_path, capsys, field, scalar):
    doc = FIXTURE_DOC.replace('{"kind": "fp", "p": 5}', field).replace(
        '["0", "0", "0"]]', '["0", "%s", "0"]]' % scalar, 1)
    assert main(["passport", write_doc(tmp_path, "long.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err) < 200
    assert "generators[0][1][1]" in err


def test_passport_fixture(fixture_file, capsys):
    assert main(["passport", fixture_file]) == 0
    out = capsys.readouterr().out
    assert out == "rank=1 piece={q2}\nrank=2 piece={q1,q3}\nfaithful=true\n"


def test_passport_json(fixture_file, capsys):
    assert main(["passport", fixture_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "passport": [
            {"rank": 1, "piece": ["q2"]},
            {"rank": 2, "piece": ["q1", "q3"]},
        ],
        "faithful": True,
    }


def test_passport_empty_generators(tmp_path, capsys):
    doc = json.loads(FIXTURE_DOC)
    doc["generators"] = []
    path = write_doc(tmp_path, "empty.json", json.dumps(doc))
    assert main(["passport", path]) == 0
    out = capsys.readouterr().out
    assert out == "rank=0 piece={q1,q2,q3}\nfaithful=false\n"


def test_passport_missing_file(tmp_path, capsys):
    assert main(["passport", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("parts", [("d" * 300, "f" * 3000), ("missing",) * 400],
                         ids=["long-names", "deep-directories"])
def test_long_missing_path_error_is_short(tmp_path, capsys, parts):
    path = str(tmp_path.joinpath(*parts))
    assert len(path) > 3000
    assert main(["passport", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno ")
    assert err.count("\n") == 1 and len(err) < 200 and f"({len(path)} characters)" in err


LATIN1_DOC = FIXTURE_DOC.replace('"q1"', '"q\xe9"').encode("latin-1")


def test_long_non_utf8_path_error_is_short(tmp_path, capsys):
    folder = tmp_path.joinpath(*["d" * 60] * 40)
    folder.mkdir(parents=True)
    path = folder / "latin1.json"
    path.write_bytes(LATIN1_DOC)
    assert len(str(path)) > 2000
    assert main(["passport", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 200
    assert err.startswith("error: ") and f"({len(str(path))} characters) is not UTF-8 text: " in err


def test_short_non_utf8_path_is_quoted(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes(LATIN1_DOC)
    assert main(["passport", "latin1.json"]) == 2
    assert capsys.readouterr().err == "error: 'latin1.json' is not UTF-8 text: invalid continuation byte\n"


def test_first_difference_names_the_first_unequal_entries():
    from regmod.cli import _first_difference

    ctx = regmod.AtomSet(("q1", "q2"))
    one = regmod.Passport((regmod.PassportEntry(ctx.full(), 1),))
    two = regmod.Passport((regmod.PassportEntry(ctx.atom("q1"), 0),
                           regmod.PassportEntry(ctx.atom("q2"), 2)))
    assert _first_difference(one, one) == ("(none)", "(none)")
    assert _first_difference(one, two) == ("rank=1 piece={q1,q2}", "rank=0 piece={q1}")
    assert _first_difference(two, one) == ("rank=0 piece={q1}", "rank=1 piece={q1,q2}")
    other = regmod.Passport((regmod.PassportEntry(ctx.atom("q1"), 0),
                             regmod.PassportEntry(ctx.atom("q2"), 3)))
    assert _first_difference(two, other) == ("rank=2 piece={q2}", "rank=3 piece={q2}")


@pytest.mark.parametrize("error", [RuntimeError("boom\n" + "x" * 5000), KeyError("k" * 5000)])
def test_unexpected_exception_exits_2(fixture_file, capsys, monkeypatch, error):
    def failing(gens):
        raise error

    monkeypatch.setattr("regmod.cli.passport", failing)
    assert main(["passport", fixture_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: internal error: {type(error).__name__}: ")
    assert "Traceback" not in err and err.count("\n") == 1 and len(err) < 200


def test_out_of_memory_exits_2_with_its_own_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("regmod.cli.cmd_gen", exhausted)
    assert main(["gen", "--seed", "1", "--atoms", "1000000000", "--ambient", "1",
                 "--gens", "1", "--field", "fp:5"]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_wide_emit_map_json_is_pinned(tmp_path, capsys):
    from test_module_file import wide_module

    path = write_doc(tmp_path, "f5.json", render_module_file(wide_module(regmod.PrimeField(5), 1024)))
    assert main(["iso", path, path, "--emit-map", "--json"]) == 0
    out = capsys.readouterr().out
    # sha256 of the stdout of the json.dumps(indent=2) renderer
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "da6ba3547624d149f37c87e20771551b7e109ac58a234aca28a4a1a20710b6c9"
    )


def test_passport_malformed_json(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", "{broken")
    assert main(["passport", path]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_iso_positive(tmp_path, fixture_file, capsys):
    # same passport: swap the generators and rescale one by a unit
    doc = json.loads(FIXTURE_DOC)
    doc["generators"] = [
        [["0", "0", "0"], ["2", "0", "3"]],
        [["4", "1", "2"], ["0", "0", "0"]],
    ]
    other = write_doc(tmp_path, "other.json", json.dumps(doc))
    assert main(["iso", fixture_file, other]) == 0
    assert capsys.readouterr().out == "ISOMORPHIC\n"
    # symmetry
    assert main(["iso", other, fixture_file]) == 0
    assert capsys.readouterr().out == "ISOMORPHIC\n"


def test_iso_emit_map(tmp_path, fixture_file, capsys):
    assert main(["iso", fixture_file, fixture_file, "--emit-map"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ISOMORPHIC\n")
    assert "piece={q2}" in out
    assert "image[0]=" in out


def test_iso_emit_map_json(fixture_file, capsys):
    assert main(["iso", fixture_file, fixture_file, "--emit-map", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["isomorphic"] is True
    assert [p["rank"] for p in doc["map"]["pieces"]] == [1, 2]
    assert len(doc["map"]["generator_images"]) == 2


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_iso_emit_map_skipped_on_rank_zero(tmp_path, capsys, as_json):
    doc = json.loads(FIXTURE_DOC)
    doc["generators"] = [[["1", "0", "0"], ["0", "0", "0"]]]
    a = write_doc(tmp_path, "a.json", json.dumps(doc))
    doc["generators"] = [[["3", "0", "0"], ["0", "0", "0"]]]
    b = write_doc(tmp_path, "b.json", json.dumps(doc))
    assert main(["iso", a, b, "--emit-map"] + ["--json"] * as_json) == 0
    captured = capsys.readouterr()
    if as_json:  # the document just has no "map" key, and stderr stays empty
        out = json.loads(captured.out)
        assert out["isomorphic"] is True and "map" not in out
        assert captured.err == ""
    else:
        assert captured.out == "ISOMORPHIC\n"
        assert "rank-0" in captured.err


def test_iso_negative(tmp_path, fixture_file, capsys):
    doc = json.loads(FIXTURE_DOC)
    doc["generators"] = [
        [["1", "1", "1"], ["0", "0", "0"]],
        [["0", "0", "0"], ["0", "1", "1"]],
    ]
    other = write_doc(tmp_path, "other.json", json.dumps(doc))
    assert main(["iso", fixture_file, other]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "NOT ISOMORPHIC"
    assert out.splitlines()[1].startswith("first difference: ")


def test_iso_negative_json(tmp_path, fixture_file, capsys):
    doc = json.loads(FIXTURE_DOC)
    doc["generators"] = []
    other = write_doc(tmp_path, "other.json", json.dumps(doc))
    assert main(["iso", fixture_file, other, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["isomorphic"] is False
    assert payload["first_difference"]["b"] == "rank=0 piece={q1,q2,q3}"


def test_iso_mismatched_atoms(tmp_path, fixture_file, capsys):
    doc = json.loads(FIXTURE_DOC)
    doc["atoms"] = ["r1", "r2", "r3"]
    other = write_doc(tmp_path, "other.json", json.dumps(doc))
    assert main(["iso", fixture_file, other]) == 2
    assert "error:" in capsys.readouterr().err


def test_basis_homogeneous_piece(fixture_file, capsys):
    assert main(["basis", fixture_file, "--piece", "q1,q3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "rank=2"
    assert lines[1] == "basis[0]=[1,0,1; 0,0,0]"
    assert lines[2] == "basis[1]=[0,0,0; 1,0,1]"


def test_basis_last_fit(fixture_file, capsys):
    assert main(["basis", fixture_file, "--piece", "q2", "--strategy", "last_fit"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "rank=1"


def test_basis_not_homogeneous(fixture_file, capsys):
    assert main(["basis", fixture_file, "--piece", "q1,q2,q3"]) == 1
    assert capsys.readouterr().out == "NOT HOMOGENEOUS on piece={q1,q2,q3}\n"


def test_basis_unknown_label(fixture_file, capsys):
    assert main(["basis", fixture_file, "--piece", "zz"]) == 2
    assert "zz" in capsys.readouterr().err


@pytest.mark.parametrize("json_flag, expected", [
    ([], "rank=0\n"),
    (["--json"], '{\n  "homogeneous": true,\n  "piece": [\n    "q1"\n  ],\n  "rank": 0,\n  "basis": []\n}\n'),
])
def test_basis_without_generators_in_a_huge_ambient_space(tmp_path, json_flag, expected):
    # with no generators every fiber matrix is ambient_dim x 0 and has no pivots;
    # building one runs out of memory, and a MemoryError exits 1, "not homogeneous".
    # The child runs under a 1 GiB address-space cap, so it cannot exhaust the machine.
    resource = pytest.importorskip("resource")
    doc = {"field": {"kind": "fp", "p": 5}, "atoms": ["q1", "q2"], "ambient_dim": 10**12, "generators": []}
    path = write_doc(tmp_path, "wide.json", json.dumps(doc))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    run = subprocess.run(
        [sys.executable, "-m", "regmod.cli", "basis", path, "--piece", "q1", *json_flag],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space,
        env={"PYTHONPATH": str(Path(regmod.__file__).resolve().parents[1])},
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, expected, "")


def test_member_yes(tmp_path, fixture_file, capsys):
    doc = json.loads(FIXTURE_DOC)
    # 2*g1 + 3*g2 fiberwise
    doc["generators"] = [[["2", "2", "2"], ["3", "0", "3"]]]
    vec = write_doc(tmp_path, "v.json", json.dumps(doc))
    assert main(["member", fixture_file, "--vector", vec]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "MEMBER"
    assert out[1] == "coeff[0]=(2,2,2)"
    assert out[2] == "coeff[1]=(3,0,3)"


def test_member_no(tmp_path, fixture_file, capsys):
    doc = json.loads(FIXTURE_DOC)
    doc["generators"] = [[["0", "1", "0"], ["1", "1", "0"]]]
    vec = write_doc(tmp_path, "v.json", json.dumps(doc))
    assert main(["member", fixture_file, "--vector", vec]) == 1
    assert capsys.readouterr().out == "NOT A MEMBER (witness atom q2)\n"


def test_member_json(tmp_path, fixture_file, capsys):
    doc = json.loads(FIXTURE_DOC)
    doc["generators"] = [[["1", "1", "1"], ["0", "0", "0"]]]
    vec = write_doc(tmp_path, "v.json", json.dumps(doc))
    assert main(["member", fixture_file, "--vector", vec, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["member"] is True
    assert payload["coefficients"][0] == ["1", "1", "1"]


def test_member_requires_single_vector(tmp_path, fixture_file, capsys):
    assert main(["member", fixture_file, "--vector", fixture_file]) == 2
    assert "exactly one generator" in capsys.readouterr().err


def test_member_dimension_mismatch(tmp_path, fixture_file, capsys):
    doc = json.loads(FIXTURE_DOC)
    doc["ambient_dim"] = 1
    doc["generators"] = [[["1", "1", "1"]]]
    vec = write_doc(tmp_path, "v.json", json.dumps(doc))
    assert main(["member", fixture_file, "--vector", vec]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_passes_and_reproduces(capsys):
    assert main(["verify", "--seed", "3", "--cases", "25"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "3", "--cases", "25"]) == 0
    assert capsys.readouterr().out == first
    assert all(line.endswith("25/25 passed") for line in first.splitlines())


def test_verify_json(capsys):
    assert main(["verify", "--seed", "3", "--cases", "10", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["ok"] for entry in payload)
    assert {entry["name"] for entry in payload} >= {
        "passport_matches_oracle", "isomorphism_construction",
    }


@pytest.mark.parametrize("cases", ["0", "-1"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_verify_rejects_case_count_below_one(capsys, cases, json_flag):
    # a run of no cases must not report that every property passed
    assert main(["verify", "--seed", "1", "--cases", cases] + json_flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cases must be at least 1\n"


def test_verify_catches_broken_engine(capsys, monkeypatch):
    # sabotage: report every module as rank 0 everywhere
    def bogus(gens, piece):
        trace = regmod.classification.EliminationTrace(piece, (), ((piece, 0),))
        return [(piece, 0)], trace

    monkeypatch.setattr(regmod.classification, "regular_eliminate", bogus)
    assert main(["verify", "--seed", "3", "--cases", "25"]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "counterexample:" in out


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["explode"])


@pytest.mark.parametrize(
    "name, data",
    [
        ("latin1.json", FIXTURE_DOC.replace('"q1"', '"q\xe9"').encode("latin-1")),
        ("huge_p.json", FIXTURE_DOC.replace('"p": 5', '"p": ' + "1" * 5000).encode()),
        ("deep.json", b"[" * 100000),
    ],
)
def test_unreadable_input_exits_2_without_traceback(tmp_path, capsys, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["passport", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


LONG = "k" * 5000


@pytest.mark.parametrize("doc", [
    FIXTURE_DOC.replace('"atoms"', '"%s": 1, "atoms"' % LONG),
    FIXTURE_DOC.replace('"p": 5', '"p": 5, "%s": 1' % LONG),
    FIXTURE_DOC.replace('"field"', '"%s": 1, "%s": 2, "field"' % (LONG, LONG)),
    FIXTURE_DOC.replace('"kind": "fp"', '"kind": "%s"' % LONG),
    FIXTURE_DOC.replace('"kind": "fp"', '"kind": [%s]' % ", ".join(["1"] * 5000)),
], ids=["unknown-key", "unknown-field-key", "duplicate-key", "field-kind", "field-kind-list"])
def test_long_key_or_kind_error_is_short(tmp_path, capsys, doc):
    assert main(["passport", write_doc(tmp_path, "long.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err) < 200


def test_long_piece_label_error_is_short(fixture_file, capsys):
    assert main(["basis", fixture_file, "--piece", "q1," + LONG]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown atom label") and len(err) < 200


def test_print_json_writes_an_answer_a_chunk_at_a_time(monkeypatch):
    chunks: list[str] = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": staticmethod(chunks.append)}))
    answer = {"images": [[[str(i % 5)] * 64 for _ in range(4)] for i in range(32)], "ok": True}
    _print_json(answer)
    text = "".join(chunks)
    assert text == json.dumps(answer, indent=2) + "\n"
    assert max(map(len, chunks)) < len(text) // 20  # no single write of the whole answer


def test_cli_import_leaves_verify_and_randgen_unloaded():
    # only what `import regmod.cli` itself adds counts, not what start-up hooks loaded
    # before it; -S keeps site's hooks out, so `array` shows if rng.py imports it
    code = (
        "import sys; before = set(sys.modules); import regmod.cli; "
        "print(sorted({'regmod.verify', 'regmod.randgen', 'dataclasses', 'inspect', 'array'}"
        " & (set(sys.modules) - before)))"
    )
    src = str(Path(regmod.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# exit-code contract: a mutated module file gives 0, 1 or 2, never an escape

TRICKY_SCALARS = ["٥", "+5", " 5", "5_0", "", "0005", "-0", "1/0", "1" * 5000, "x", "5"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _nodes(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replace(node, path, value):
    if not path:
        return value
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


def _mutated_text(data, doc) -> str:
    mutation = data.draw(st.sampled_from(["drop", "duplicate", "rename", "scalar", "retype", "truncate"]))
    where = data.draw(st.sampled_from(["top", "field"]))
    obj = doc if where == "top" else doc["field"]
    key = data.draw(st.sampled_from(sorted(obj)))
    if mutation == "drop":
        del obj[key]
    elif mutation == "rename":
        obj[data.draw(st.text(max_size=6))] = obj.pop(key)
    elif mutation == "duplicate":
        text = json.dumps(doc)
        anchor = text.index("{", 1) + 1 if where == "field" else 1
        pair = f"{json.dumps(key)}: {json.dumps(obj[key])}, "
        return text[:anchor] + pair + text[anchor:]
    elif mutation == "scalar":
        rows = [(i, j) for i, grid in enumerate(doc["generators"]) for j in range(len(grid))]
        i, j = data.draw(st.sampled_from(rows))
        k = data.draw(st.integers(0, len(doc["atoms"]) - 1))
        doc["generators"][i][j][k] = data.draw(st.sampled_from(TRICKY_SCALARS) | st.text(max_size=6))
    elif mutation == "retype":
        path = data.draw(st.sampled_from(list(_nodes(doc))))
        doc = _replace(doc, path, data.draw(JSON_VALUES))
    else:
        text = json.dumps(doc)
        return text[: data.draw(st.integers(0, len(text) - 1))]
    return json.dumps(doc)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_module_file_keeps_exit_code_contract(tmp_path, capsys, data):
    field = data.draw(st.sampled_from(["fp:5", "fp:2305843009213693951", "rational"]))
    assert main(["gen", "--seed", "7", "--atoms", "4", "--ambient", "2",
                 "--gens", "2", "--field", field]) == 0
    doc = json.loads(capsys.readouterr().out)
    path = write_doc(tmp_path, "mutant.json", _mutated_text(data, doc))
    code = main(["passport", path, "--json"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error:")
