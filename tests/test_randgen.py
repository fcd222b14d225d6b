from __future__ import annotations

import tracemalloc
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod import (
    AlgebraElement,
    AtomSet,
    ModuleVector,
    PrimeField,
    RationalField,
    atom_rank_profile,
    passport,
)
from regmod.cli import main
from regmod.module_file import parse_module_file, render_module_file
from regmod.randgen import (
    ACCEPTANCE_FIELDS,
    apply_invertible_op,
    constant_rank_instance,
    default_labels,
    perturb_rank_profile,
    random_element,
    random_field,
    random_generator_set,
    random_unit,
    random_vector,
    recombined_copy,
)
from regmod.rng import SplitMix64


def test_default_labels():
    assert default_labels(3) == ("q1", "q2", "q3")
    assert default_labels(1) == ("q1",)


def test_acceptance_fields():
    assert ACCEPTANCE_FIELDS == (
        PrimeField(2), PrimeField(5), PrimeField(97), RationalField(),
    )


def test_random_field_stays_in_menu():
    rng = SplitMix64(3)
    assert all(random_field(rng) in ACCEPTANCE_FIELDS for _ in range(40))


def test_generator_set_deterministic():
    a = random_generator_set(SplitMix64(12))
    b = random_generator_set(SplitMix64(12))
    assert a == b
    assert a != random_generator_set(SplitMix64(13))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_generator_set_respects_bounds(seed):
    gens = random_generator_set(SplitMix64(seed), max_atoms=5, max_gens=3, max_ambient=4)
    assert 1 <= len(gens.context) <= 5
    assert 0 <= len(gens) <= 3
    assert 1 <= gens.ambient_dim <= 4
    assert gens.field in ACCEPTANCE_FIELDS


def test_random_unit_is_invertible():
    rng = SplitMix64(8)
    for field in ACCEPTANCE_FIELDS:
        gens = random_generator_set(SplitMix64(1), field)
        u = random_unit(field, gens.context, rng)
        assert u.support() == gens.context.full()
        one = AlgebraElement.from_idempotent(field, gens.context.full())
        assert u * u.inversion() == one


def test_random_element_zero_bias():
    rng = SplitMix64(21)
    gens = random_generator_set(SplitMix64(1), PrimeField(97), max_atoms=4)
    always = [random_element(PrimeField(97), gens.context, rng, zero_bias=1)
              for _ in range(30)]
    assert all(a.is_zero for a in always)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_invertible_op_preserves_passport(seed):
    rng = SplitMix64(seed)
    gens = random_generator_set(rng, max_atoms=5, max_gens=4, max_ambient=4)
    before = passport(gens)
    assert passport(apply_invertible_op(gens, rng)) == before
    assert passport(recombined_copy(gens, rng, ops=4)) == before


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_perturbation_changes_profile(seed):
    rng = SplitMix64(seed)
    gens = random_generator_set(rng, max_atoms=5, max_gens=4, max_ambient=4)
    other = perturb_rank_profile(gens, rng)
    assert atom_rank_profile(other) != atom_rank_profile(gens)


def test_perturbation_of_empty_module():
    gens = random_generator_set(SplitMix64(2), max_atoms=3, max_gens=2)
    empty = type(gens)(gens.field, gens.context, gens.ambient_dim, ())
    other = perturb_rank_profile(empty, SplitMix64(0))
    assert len(other) == 1
    assert atom_rank_profile(other) != atom_rank_profile(empty)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_constant_rank_instance_is_constant(seed):
    gens, rank = constant_rank_instance(SplitMix64(seed), max_atoms=5)
    profile = atom_rank_profile(gens)
    assert set(profile.ranks.values()) == {rank}


def test_randgen_outputs_golden():
    """Byte-for-byte pin of the generators' output, seeds 0-199."""
    h = sha256()
    branches = set()
    for seed in range(200):
        rng = SplitMix64(seed)
        gens, rank = constant_rank_instance(rng)
        h.update(f"{rank}\n{render_module_file(gens)}".encode())
        for source in (gens, random_generator_set(rng, max_atoms=6, max_gens=3, max_ambient=3)):
            other = perturb_rank_profile(source, rng)
            branches.add(len(other) > len(source))
            h.update(render_module_file(other).encode())
    assert branches == {True, False}  # both the appending and the zeroing branch ran
    assert h.hexdigest() == "e39fadac44600cc9da1e2d894f07482724921da4db2d4da570fa0eea5fc56bb2"


# sha256 of render_module_file over three (seed, atoms, ambient, gens) shapes:
# of the module `gen` draws, of its recombined_copy and of its
# perturb_rank_profile, each drawn from SplitMix64(seed)
GENERATOR_SHAPES = ((1, 24, 5, 4), (2, 16, 3, 6), (3, 9, 4, 4))
GENERATOR_PINS = {
    "fp:2": (
        "9e9f96fec9963fb72dde2a1bd0041697204643db9738fbf15ee9f120484a12eb",
        "f2e12d352d02361cc728fdd403dac7a0368856c1dc2089d991bc832ebdf60f83",
        "1897090ab203d3b3868c79b5b4d0a256e88da0d4abcda4a0950dda46267ec551",
    ),
    "fp:5": (
        "f0eea0acdbe9e908d7d772c9834bb984ce387ed4515d67ea0b96d90f34f9b9e2",
        "2a6c4ce9d14c4f6d0bbb284d793a15026bd7b072e1390bf6270e730c68231971",
        "9ffecff161e85663a6448d8ff0447d0e95219540812248306165cc2b9d780176",
    ),
    "fp:97": (
        "181a7edcb0a6a65a7012690a3e40d5fa98b45e7b4038520aa534913e21e7d46f",
        "d86b3493d4d9da3e3c5793b2ee28254d1d46e34c7452b3db189acad10c824c83",
        "55cb194cf03fedcbeace1384a088a65eb501e5f4dc74e869adc1994fa2ee9cc6",
    ),
    "fp:2305843009213693951": (
        "a4a658a48b58f9b9bc5dac0d653acf5a752c6f5be38b1d2b4a0c82199199d507",
        "1383872030d72906c1d9a95ce88b8f9d19e2d43160503382849d74ba4adda669",
        "922923ef431846e0d370b5c944f04a8cbc0b26f9d7a11aaef4f33dd812397682",
    ),
    "rational": (
        "f155158d996f138a959edf992afb29878dda03079dd40df32b53737b616f0a75",
        "7a843c4fa994da7f63fa2c6e25bb8fe713bd50dfbfdded111a757897d2f6fa14",
        "15b122f66499947f958c3bf4cbcc424d06bf5b515400a8c947d4157f1581fb89",
    ),
}


@pytest.mark.parametrize("spec", GENERATOR_PINS)
def test_generated_modules_are_pinned(spec, capsys):
    digests = [sha256() for _ in range(3)]
    for seed, d, n, m in GENERATOR_SHAPES:
        assert main(["gen", "--seed", str(seed), "--atoms", str(d), "--ambient", str(n),
                     "--gens", str(m), "--field", spec]) == 0
        text = capsys.readouterr().out
        gens = parse_module_file(text)
        rng = SplitMix64(seed)
        outputs = (text, render_module_file(recombined_copy(gens, rng)),
                   render_module_file(perturb_rank_profile(gens, rng)))
        for h, out in zip(digests, outputs):
            h.update(out.encode())
    assert tuple(h.hexdigest() for h in digests) == GENERATOR_PINS[spec]


# sha256 of `gen` stdout for seeds 1-3, n = 3, m = 2, at atom counts below the
# 16 and 64 of the golden corpora: small rows take the block draws too
SMALL_GEN_PINS = {
    ("fp:2", 1): "fde47c0db55ee73fb958fa7a8f4a5063538eb896e9e7ce86c3b3b5de66e79972",
    ("fp:2", 3): "de2555e70b27715f0bf0a7fccf57bebdef182e33226cd835bfaaf56bcc6ca621",
    ("fp:2", 7): "5f790b8592a0cc15f4e9858417cf88e50b7babe1195e4ee95dc6d9cfc86f5f80",
    ("fp:97", 1): "142cebb7cb164d4fa776bc8987ea8e72c5f4ee6b500b365a0cf635e453681d96",
    ("fp:97", 3): "50a66a224c2739135ddcde6bcc6b7caa8391c57a24685459e4e06024dff70583",
    ("fp:97", 7): "3d8c6e67624f2adb45589264e3dd429bb05d72aabfccbecd13a55eeb2616caea",
    ("fp:2305843009213693951", 1): "cd6dd486a5b4b2988e2191daec16dca6182a5ee0205e69bc5bb8049cf77500fb",
    ("fp:2305843009213693951", 3): "fd27dca5d426c70a1a8b26f37087cb115f122d740571574b6d184bdc61404b7d",
    ("fp:2305843009213693951", 7): "f7e50ab8ce806469be3e21adb388d926432de11e51c7c807382f911d9ed1e187",
}


@pytest.mark.parametrize("spec, atoms", SMALL_GEN_PINS)
def test_small_generated_modules_are_pinned(spec, atoms, capsys):
    digest = sha256()
    for seed in (1, 2, 3):
        assert main(["gen", "--seed", str(seed), "--atoms", str(atoms), "--ambient", "3",
                     "--gens", "2", "--field", spec]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SMALL_GEN_PINS[spec, atoms]


# ---------------------------------------------------------------------------
# Block draws: random_element and random_vector take their words a block at a
# time, and must give what the per-draw loop below gives, value for value and
# word for word.


def _reference_scalar(field, rng):
    if isinstance(field, PrimeField):
        return rng.below(field.p)
    return Fraction(rng.below(21) - 10, 1 + rng.below(9))


def _reference_values(field, d, rng, zero_bias=3):
    """The per-draw loop random_element ran before block draws, verbatim."""
    return [
        field.zero if rng.below(zero_bias) == 0 else _reference_scalar(field, rng)
        for _ in range(d)
    ]


def _typed(values):
    return [(type(v), v) for v in values]  # 0 == Fraction(0), so compare the types too


BLOCK_FIELDS = (
    PrimeField(2),
    PrimeField(5),
    PrimeField(97),
    PrimeField(2**61 - 1),
    RationalField(),
    PrimeField(2**63 + 29),  # least prime above 2^63: about half its words are redrawn
    PrimeField(2**64 + 13),  # least prime above 2^64: each draw joins two words
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BLOCK_FIELDS),
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_block_draws_equal_the_per_draw_loop(field, d, n, zero_bias, seed):
    context = AtomSet(default_labels(d))
    rng, replay = SplitMix64(seed), SplitMix64(seed)
    element = random_element(field, context, rng, zero_bias)
    assert _typed(element.values) == _typed(_reference_values(field, d, replay, zero_bias))
    vector = random_vector(field, context, n, rng, zero_bias)
    assert [_typed(c.values) for c in vector.coords] == [
        _typed(_reference_values(field, d, replay, zero_bias)) for _ in range(n)
    ]
    assert rng.next64() == replay.next64()


@pytest.mark.parametrize("field", BLOCK_FIELDS, ids=str)
def test_block_draws_span_several_blocks(field):
    context = AtomSet(default_labels(5000))
    rng, replay = SplitMix64(5000), SplitMix64(5000)
    assert _typed(random_element(field, context, rng).values) == _typed(
        _reference_values(field, 5000, replay)
    )
    assert rng.next64() == replay.next64()


def _peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_draws_keep_a_wide_rows_peak_memory():
    field, d = PrimeField(5), 65536
    context = AtomSet(default_labels(d))
    SplitMix64(0).words(1)  # the lane constants are built once per process, not per row
    per_draw = _peak_bytes(
        lambda: ModuleVector(
            (AlgebraElement(field, context, _reference_values(field, d, SplitMix64(1))),)
        )
    )
    blocks = _peak_bytes(lambda: random_vector(field, context, 1, SplitMix64(1)))
    assert blocks <= 1.25 * per_draw
