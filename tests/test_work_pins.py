"""Exact work per CLI command: elimination-engine calls and per-atom echelon calls.

Each command runs in process through `cli.main`, with counting wrappers on
`regmod.classification.regular_eliminate` and on the two module globals
through which `echelon` is reached: `regmod.classification.echelon` (bases
and isomorphism maps) and `regmod.module_space.echelon` (`fiber_rank`,
`solve_linear` and `kernel_sample`).  The counts are deterministic, so they
resolve a change in work that wall time on a shared machine cannot.

`PINS` holds upper bounds equal to today's counts: a change that does less
work tightens its pin.  The inputs are the README fixture and the golden
d = 16 corpora over F_5 and Q.  `python tests/test_work_pins.py` prints the
counts for the current code.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import regmod.classification
import regmod.module_space
from regmod import (
    AtomSet,
    GeneratorSet,
    ModuleVector,
    PrimeField,
    is_strictly_homogeneous,
    kappa,
    render_module_file,
)
from regmod.cli import main
from test_golden_cli import build_corpus

COUNTED = (
    (regmod.classification, "regular_eliminate"),
    (regmod.classification, "echelon"),
    (regmod.module_space, "echelon"),
)
KEYS = ("classification.regular_eliminate", "classification.echelon", "module_space.echelon")
NAMES = ("readme", "f5-d16", "q-d16")

README_DOC = {  # the handwritten module file of the README
    "field": {"kind": "fp", "p": 5}, "atoms": ["q1", "q2", "q3"], "ambient_dim": 2,
    "generators": [[["1", "1", "1"], ["0", "0", "0"]], [["0", "0", "0"], ["1", "0", "1"]]],
}
README_EXTRA = {  # generators of an isomorphic copy and of two vectors for `member`
    "a_recombined": [[["0", "0", "0"], ["2", "0", "3"]], [["4", "1", "2"], ["0", "0", "0"]]],
    "v_in": [[["1", "1", "1"], ["1", "0", "1"]]],
    "v_out": [[["1", "1", "1"], ["0", "1", "0"]]],  # off the span at q2
}


def _readme_commands(directory: Path) -> dict[str, list[str]]:
    paths = {}
    for stem, generators in {"a": README_DOC["generators"], **README_EXTRA}.items():
        paths[stem] = str(directory / f"{stem}.json")
        Path(paths[stem]).write_text(json.dumps({**README_DOC, "generators": generators}))
    commands = {
        "passport": ["passport", paths["a"]],
        "iso recombined": ["iso", paths["a"], paths["a_recombined"], "--emit-map"],
        "member in": ["member", paths["a"], "--vector", paths["v_in"]],
        "member out": ["member", paths["a"], "--vector", paths["v_out"]],
    }
    for strategy in ("first_fit", "last_fit"):
        for kind, piece in (("homogeneous", "q1,q3"), ("mixed", "q1,q2")):
            commands[f"basis {strategy} {kind}"] = [
                "basis", paths["a"], "--piece", piece, "--strategy", strategy]
    return commands


def _commands(name: str, directory: Path) -> dict[str, list[str]]:
    """The passport, iso --emit-map, basis and member commands of one input."""
    if name == "readme":
        return _readme_commands(directory)
    _, commands = build_corpus(name, directory)
    keep = ("passport", "iso recombined", "member in", "member out")
    return {key: argv for key, argv in commands.items()
            if (key in keep or key.startswith("basis ")) and not key.endswith("--json")}


@contextlib.contextmanager
def counting():
    """Count calls of every COUNTED global while the block runs."""
    counts = dict.fromkeys(KEYS, 0)
    originals = [getattr(module, attr) for module, attr in COUNTED]

    def wrapper(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return counted

    for (module, attr), key, original in zip(COUNTED, KEYS, originals):
        setattr(module, attr, wrapper(key, original))
    try:
        yield counts
    finally:
        for (module, attr), original in zip(COUNTED, originals):
            setattr(module, attr, original)


def work(argv: list[str]) -> tuple[int, tuple[int, ...]]:
    """The exit code of one in-process command and its call counts, in KEYS order."""
    with counting() as counts, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, tuple(counts[key] for key in KEYS)


@pytest.mark.parametrize("name", NAMES)
def test_work_pins(name, tmp_path):
    got = {key: work(argv) for key, argv in _commands(name, tmp_path).items()}
    assert got.keys() == PINS[name].keys()
    for key, (code, counts) in got.items():
        pin_code, pin = PINS[name][key]
        assert code == pin_code, key
        assert all(c <= p for c, p in zip(counts, pin)), f"{key}: {counts} above the pin {pin}"


def test_rank_questions_make_one_engine_call(fixture_gens, atoms3):
    """kappa and is_strictly_homogeneous read one elimination and run no per-atom echelon."""
    for e, rank in ((atoms3.subset(["q1", "q3"]), 2), (atoms3.full(), None)):
        with counting() as counts:
            assert kappa(fixture_gens, e) == rank
        assert tuple(counts.values()) == (1, 0, 0)
        with counting() as counts:
            assert is_strictly_homogeneous(fixture_gens, e) == (rank is not None)
        assert tuple(counts.values()) == (1, 0, 0)


@pytest.mark.parametrize("strategy", ("first_fit", "last_fit"))
def test_basis_on_a_homogeneous_piece_eliminates_each_atom_once(strategy, tmp_path):
    """`basis` on a k-atom piece: one engine call for the rank, k echelon calls for the basis."""
    field = PrimeField(5)
    context = AtomSet(tuple(f"q{i}" for i in range(1, 9)))
    gens = GeneratorSet(field, context, 3, tuple(
        ModuleVector.unit(field, context, 3, position) for position in (0, 2)))
    path = tmp_path / "m.json"
    path.write_text(render_module_file(gens))
    for k in (1, 5, 8):
        piece = ",".join(context.labels[:k])
        assert work(["basis", str(path), "--piece", piece, "--strategy", strategy]) == (0, (1, k, 0))


# (exit code, (regular_eliminate, classification.echelon, module_space.echelon) calls):
# each count an upper bound
PINS: dict[str, dict[str, tuple[int, tuple[int, int, int]]]] = {
    'readme': {
        'passport': (0, (1, 0, 0)),
        'iso recombined': (0, (2, 6, 0)),
        'member in': (0, (0, 0, 3)),
        'member out': (1, (0, 0, 2)),
        'basis first_fit homogeneous': (0, (1, 2, 0)),
        'basis first_fit mixed': (1, (1, 0, 0)),
        'basis last_fit homogeneous': (0, (1, 2, 0)),
        'basis last_fit mixed': (1, (1, 0, 0)),
    },
    'f5-d16': {
        'passport': (0, (1, 0, 0)),
        'iso recombined': (0, (2, 32, 0)),
        'member in': (0, (0, 0, 16)),
        'member out': (1, (0, 0, 15)),
        'basis first_fit homogeneous': (0, (1, 8, 0)),
        'basis first_fit mixed': (1, (1, 0, 0)),
        'basis last_fit homogeneous': (0, (1, 8, 0)),
        'basis last_fit mixed': (1, (1, 0, 0)),
    },
    'q-d16': {
        'passport': (0, (1, 0, 0)),
        'iso recombined': (0, (2, 32, 0)),
        'member in': (0, (0, 0, 16)),
        'member out': (1, (0, 0, 12)),
        'basis first_fit homogeneous': (0, (1, 8, 0)),
        'basis first_fit mixed': (1, (1, 0, 0)),
        'basis last_fit homogeneous': (0, (1, 8, 0)),
        'basis last_fit mixed': (1, (1, 0, 0)),
    },
}


if __name__ == "__main__":
    import tempfile

    for name in NAMES:
        with tempfile.TemporaryDirectory() as directory:
            print(f"    {name!r}: {{")
            for key, argv in _commands(name, Path(directory)).items():
                print(f"        {key!r}: {work(argv)},")
            print("    },")
