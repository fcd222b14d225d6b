"""Seeded inputs for the benchmark workloads.

Every module file is derived from the workload seed alone, so the same seed
writes the same bytes.  Random modules are drawn exactly as
`regmod gen --seed S --atoms d --ambient n --gens m --field F` draws them,
which lets anyone regenerate one input with the CLI.  Each workload yields a
list of `Op`s: one CLI call each, plus what the checker needs to judge the
answer independently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from regmod.boolean_core import AtomSet
from regmod.fields import Field, PrimeField, RationalField
from regmod.module_file import render_module_file
from regmod.module_space import GeneratorSet, combine
from regmod.oracle import atom_rank_profile
from regmod.randgen import (
    default_labels,
    perturb_rank_profile,
    random_element,
    random_vector,
    recombined_copy,
)
from regmod.rng import SplitMix64


@dataclass
class Op:
    """One CLI call: `python -m regmod.cli <argv>`."""

    kind: str  # passport | iso | basis | member
    argv: list[str]
    atoms: int  # atoms of input answered: d per module the command analyses
    module: GeneratorSet
    other: Optional[GeneratorSet] = None  # iso target, or the member vector
    piece: tuple[str, ...] = ()
    expected: dict = field(default_factory=dict)  # oracle answers, filled by checks


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Iterator[int], Callable[[str, GeneratorSet], str]], list[Op]]
    # ops per round: a run answers whole rounds, so every run keeps the
    # workload's exact op mix, and the traced run answers the first round
    round_ops: int
    # set-ups per run; setup_s is their median.  A short set-up is noisy,
    # so it is repeated more often
    setup_reps: int


def random_module(field_: Field, d: int, n: int, m: int, seed: int) -> GeneratorSet:
    """The module `regmod gen` writes for these arguments."""
    rng = SplitMix64(seed)
    context = AtomSet(default_labels(d))
    vectors = tuple(random_vector(field_, context, n, rng) for _ in range(m))
    return GeneratorSet(field_, context, n, vectors)


def _passport_wide(seeds, write) -> list[Op]:
    ops = []
    for i in range(6):
        gens = random_module(PrimeField(5), 1024, 8, 8, next(seeds))
        ops.append(Op("passport", ["passport", write(f"p{i}", gens), "--json"], 1024, gens))
    return ops


def _iso_map(seeds, write) -> list[Op]:
    ops = []
    for i in range(12):
        a = random_module(RationalField(), 64, 8, 8, next(seeds))
        rng = SplitMix64(next(seeds))
        # one pair in four differs in rank profile and takes the "no" path;
        # it comes first, so the untimed set-up call is the short one
        b = perturb_rank_profile(a, rng) if i % 4 == 0 else recombined_copy(a, rng)
        argv = ["iso", write(f"a{i}", a), write(f"b{i}", b), "--emit-map", "--json"]
        ops.append(Op("iso", argv, 2 * 64, a, b))
    return ops


_SMALL_FIELDS: tuple[Field, ...] = (
    PrimeField(5),
    PrimeField(97),
    PrimeField(2**61 - 1),
    RationalField(),
)


def _pieces(gens: GeneratorSet) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A piece of constant rank and a piece mixing two ranks, when there are two."""
    by_rank: dict[int, list[str]] = {}
    for label, rank in atom_rank_profile(gens).ranks.items():
        by_rank.setdefault(rank, []).append(label)
    groups = sorted(by_rank.values(), key=len, reverse=True)
    homogeneous = tuple(groups[0])
    mixed = tuple(groups[0][:2] + (groups[1][:2] if len(groups) > 1 else []))
    order = gens.context.labels
    return homogeneous, tuple(sorted(mixed, key=order.index))


def _cli_small(seeds, write) -> list[Op]:
    ops = []
    d, n, m = 16, 5, 4
    for f, field_ in enumerate(_SMALL_FIELDS):
        a = random_module(field_, d, n, m, next(seeds))
        # the last generator lives on the upper half only, so two ranks appear
        upper = a.context.subset(a.context.labels[d // 2:])
        a = GeneratorSet(field_, a.context, n, a.gens[:-1] + (a.gens[-1].restrict(upper),))
        rng = SplitMix64(next(seeds))
        b = recombined_copy(a, rng)
        member = combine(a.gens, [random_element(field_, a.context, rng) for _ in a.gens])
        # m < n, so perturbing appends a fiber outside the span at one atom
        outside = perturb_rank_profile(a, rng).gens[-1]
        vectors = {
            "in": GeneratorSet(field_, a.context, n, (member,)),
            "out": GeneratorSet(field_, a.context, n, (member + outside,)),
        }
        path_a = write(f"s{f}a", a)
        path_b = write(f"s{f}b", b)
        ops.append(Op("passport", ["passport", path_a, "--json"], d, a))
        ops.append(Op("iso", ["iso", path_a, path_b, "--emit-map", "--json"], 2 * d, a, b))
        for piece in _pieces(a):
            argv = ["basis", path_a, "--piece", ",".join(piece), "--json"]
            ops.append(Op("basis", argv, d, a, piece=piece))
        for tag, vector in vectors.items():
            argv = ["member", path_a, "--vector", write(f"s{f}v{tag}", vector), "--json"]
            ops.append(Op("member", argv, d, a, vector))
    return ops


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("passport-wide", _passport_wide, round_ops=1, setup_reps=3),
        Workload("iso-map", _iso_map, round_ops=4, setup_reps=5),
        Workload("cli-small", _cli_small, round_ops=24, setup_reps=31),
    )
}


def generate(name: str, seed: int, directory: Path) -> tuple[list[Op], dict[str, str]]:
    """Write the workload's module files for `seed`; return its ops and file digests."""
    directory.mkdir(parents=True, exist_ok=True)
    digests: dict[str, str] = {}

    def write(stem: str, gens: GeneratorSet) -> str:
        data = render_module_file(gens).encode("utf-8")
        path = directory / f"{stem}.json"
        path.write_bytes(data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
        return str(path)

    rng = SplitMix64(seed)
    seeds = iter(rng.next64, None)
    return WORKLOADS[name].build(seeds, write), digests


def input_set_digest(digests: dict[str, str]) -> str:
    """One sha256 over every file digest of an input set, in name order."""
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name} {digests[name]}\n".encode("utf-8"))
    return h.hexdigest()
