"""Acceptance gate: eight criteria, exact arithmetic, stated runtime budgets.

Every test records exactly one summary line (criterion N: PASS/FAIL) which
the terminal-summary hook prints after the run.  All comparisons are exact
equality on field scalars; there are no tolerances anywhere.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from regmod import (
    AlgebraElement,
    AtomSet,
    GeneratorSet,
    Idempotent,
    ModuleVector,
    Passport,
    PartitionOfUnity,
    PrimeField,
    RationalField,
    atom_rank_profile,
    build_isomorphism,
    combine,
    extract_basis,
    independence_test,
    iso_check,
    kappa,
    membership,
    mix_scalars,
    mix_vectors,
    oracle_passport,
    oracle_verify_iso,
    passport,
    split_product,
)
from regmod.randgen import (
    ACCEPTANCE_FIELDS,
    apply_invertible_op,
    constant_rank_instance,
    default_labels,
    perturb_rank_profile,
    random_element,
    random_generator_set,
    random_scalar,
    random_vector,
    recombined_copy,
)
from regmod.rng import SplitMix64

CORPUS_SIZE = 1000
_CORPUS: Optional[list[tuple[GeneratorSet, Passport]]] = None


def corpus() -> list[tuple[GeneratorSet, Passport]]:
    global _CORPUS
    if _CORPUS is None:
        rng = SplitMix64(0x5EED2026)
        mods = []
        for i in range(CORPUS_SIZE):
            gens = random_generator_set(
                rng.spawn(), ACCEPTANCE_FIELDS[i % len(ACCEPTANCE_FIELDS)],
                max_atoms=16, max_gens=6, max_ambient=6,
            )
            mods.append((gens, passport(gens)))
        _CORPUS = mods
    return _CORPUS


def run_criterion(acceptance, index: int, body: Callable[[], str]) -> None:
    try:
        detail = body()
    except BaseException as exc:
        acceptance(f"criterion {index}: FAIL — {type(exc).__name__}: {exc}")
        raise
    acceptance(f"criterion {index}: PASS — {detail}")


def test_criterion_1_oracle_equivalence(acceptance):
    def body() -> str:
        started = time.perf_counter()
        mismatches = [
            i for i, (gens, pp) in enumerate(corpus())
            if pp != oracle_passport(gens)
        ]
        elapsed = time.perf_counter() - started
        assert not mismatches, f"passport != oracle at corpus indices {mismatches[:5]}"
        assert elapsed <= 60.0, f"{elapsed:.1f}s exceeds the 60s budget"
        return (
            f"passport equals oracle on {CORPUS_SIZE}/{CORPUS_SIZE} seeded modules "
            f"(F2/F5/F97/Q, |atoms|<=16, m,n<=6) in {elapsed:.1f}s (budget 60s)"
        )

    run_criterion(acceptance, 1, body)


def test_criterion_2_isomorphism_both_directions(acceptance):
    def body() -> str:
        rng = SplitMix64(0xC2C2)
        for i in range(200):
            gens = random_generator_set(rng.spawn())
            other = recombined_copy(gens, rng.spawn(), ops=10)
            assert iso_check(gens, other), f"positive pair {i}: iso_check false"
            iso = build_isomorphism(gens, other)
            assert iso.partition == passport(gens).partition()
            assert oracle_verify_iso(iso, gens, other), (
                f"positive pair {i}: oracle rejected the constructed map"
            )
        for i in range(200):
            gens = random_generator_set(rng.spawn())
            other = perturb_rank_profile(gens, rng.spawn())
            assert atom_rank_profile(gens) != atom_rank_profile(other), (
                f"negative pair {i}: perturbation left the rank profile unchanged"
            )
            assert not iso_check(gens, other), f"negative pair {i}: iso_check true"
        return (
            "200/200 recombined pairs isomorphic with oracle-verified maps; "
            "200/200 perturbed pairs rejected with differing rank profiles"
        )

    run_criterion(acceptance, 2, body)


def test_criterion_3_basis_cardinality(acceptance):
    def body() -> str:
        rng = SplitMix64(0xB3B3)
        for i in range(200):
            gens, rank = constant_rank_instance(rng.spawn())
            full = gens.context.full()
            first = extract_basis(gens, full, rank, "first_fit")
            last = extract_basis(gens, full, rank, "last_fit")
            assert len(first) == len(last) == rank, (
                f"instance {i}: cardinalities {len(first)}/{len(last)} at rank {rank}"
            )
        return "200/200 constant-rank modules: first_fit and last_fit bases equal size"

    run_criterion(acceptance, 3, body)


def _span_member(gens: GeneratorSet, rng: SplitMix64) -> ModuleVector:
    if len(gens) == 0:
        return ModuleVector.zeros(gens.field, gens.context, gens.ambient_dim)
    coeffs = [random_element(gens.field, gens.context, rng) for _ in gens.gens]
    return combine(gens.gens, coeffs)


def _identity_context(rng: SplitMix64) -> AtomSet:
    return AtomSet(default_labels(1 + rng.below(4)))


def _identity_partition(context: AtomSet, rng: SplitMix64) -> PartitionOfUnity:
    d = len(context)
    owner = [rng.below(min(d, 3)) for _ in range(d)]
    masks: dict[int, int] = {}
    for q, block in enumerate(owner):
        masks[block] = masks.get(block, 0) | (1 << q)
    return PartitionOfUnity(
        tuple(Idempotent(context, m) for _, m in sorted(masks.items()))
    )


def _check_product_support(field, context, rng) -> None:
    a = random_element(field, context, rng)
    b = random_element(field, context, rng)
    ab = a * b
    assert ab.support() == a.support() & b.support()
    assert ab.is_zero == (a.support() & b.support()).is_zero


def _check_vector_support(field, context, rng) -> None:
    x = random_vector(field, context, 2, rng)
    a = random_element(field, context, rng)
    s = x.support()
    assert x.restrict(s) == x
    assert x.scale(a).support() == a.support() & s
    e = Idempotent(context, rng.below(context.full_mask + 1)) | s
    assert x.restrict(e) == x


def _check_mixing_uniqueness(field, context, rng) -> None:
    p = _identity_partition(context, rng)
    a = random_element(field, context, rng)
    assert mix_scalars(p, [a] * len(p.pieces)) == a
    values = [random_element(field, context, rng) for _ in p.pieces]
    mixed = mix_scalars(p, values)
    for piece, v in zip(p.pieces, values):
        assert mixed.restrict(piece) == v.restrict(piece)


def _check_mixing_action(field, context, rng) -> None:
    p = _identity_partition(context, rng)
    a = random_element(field, context, rng)
    xs = [random_vector(field, context, 2, rng) for _ in p.pieces]
    assert mix_vectors(p, xs).scale(a) == mix_vectors(p, [x.scale(a) for x in xs])


def _check_regularity(field, context, rng) -> None:
    a = random_element(field, context, rng)
    assert a * a * a.inversion() == a


def _check_involution(field, context, rng) -> None:
    a = random_element(field, context, rng)
    assert a.inversion().inversion() == a


def _check_idempotent_fixed(field, context, rng) -> None:
    e = Idempotent(context, rng.below(context.full_mask + 1))
    g = AlgebraElement.from_idempotent(field, e)
    assert g.inversion() == g


IDENTITY_SUITE: tuple[tuple[str, Callable], ...] = (
    ("product_support", _check_product_support),
    ("vector_support", _check_vector_support),
    ("mixing_uniqueness", _check_mixing_uniqueness),
    ("mixing_action", _check_mixing_action),
    ("regularity", _check_regularity),
    ("involution", _check_involution),
    ("idempotent_fixed", _check_idempotent_fixed),
)

CHECKS_PER_IDENTITY = 10_000


def test_criterion_4_identity_suite(acceptance):
    def body() -> str:
        primes = (PrimeField(2), PrimeField(5), PrimeField(97))
        rational = RationalField()
        started = time.perf_counter()
        for pos, (name, check) in enumerate(IDENTITY_SUITE):
            for offset, backend in enumerate(("fp", "rational")):
                rng = SplitMix64(0x1D_0000 + 2 * pos + offset)
                for i in range(CHECKS_PER_IDENTITY):
                    field = primes[rng.below(3)] if backend == "fp" else rational
                    context = _identity_context(rng)
                    try:
                        check(field, context, rng)
                    except AssertionError:
                        raise AssertionError(
                            f"{name} over {backend} failed at check {i}"
                        )
        elapsed = time.perf_counter() - started
        assert elapsed <= 30.0, f"{elapsed:.1f}s exceeds the 30s budget"
        return (
            f"{len(IDENTITY_SUITE)} identities x 2 backends x "
            f"{CHECKS_PER_IDENTITY} checks, all exact, in {elapsed:.1f}s (budget 30s)"
        )

    run_criterion(acceptance, 4, body)


def test_criterion_5_independence_bound(acceptance):
    def body() -> str:
        rng = SplitMix64(0xA5A5)
        independent_seen = 0
        for i in range(500):
            gens = random_generator_set(
                rng.spawn(), max_atoms=6, max_gens=6, max_ambient=5
            )
            context = gens.context
            e = Idempotent(context, 1 + rng.below(context.full_mask))
            size = 1 + rng.below(len(gens) + 2)
            sample = tuple(
                _span_member(gens, rng).restrict(e) for _ in range(size)
            )
            subset = GeneratorSet(gens.field, context, gens.ambient_dim, sample)
            if independence_test(subset, e).independent:
                independent_seen += 1
                assert size <= len(gens), (
                    f"instance {i}: independent subset of size {size} "
                    f"inside the span of {len(gens)} generators"
                )
        return (
            f"500/500 sampled subsets respect the bound "
            f"({independent_seen} were independent)"
        )

    run_criterion(acceptance, 5, body)


def test_criterion_6_presentation_invariance(acceptance):
    def body() -> str:
        rng = SplitMix64(0x6F6F)
        for i in range(200):
            gens = random_generator_set(rng.spawn())
            rendered = passport(gens).render()
            current = gens
            for step in range(10):
                current = apply_invertible_op(current, rng)
                now = passport(current).render()
                assert now == rendered, (
                    f"module {i} op {step}: rendering drifted\n{rendered}\n{now}"
                )
        return "200/200 modules keep a byte-identical passport under 10 rewrites"

    run_criterion(acceptance, 6, body)


def test_criterion_7_mixing_and_products(acceptance):
    def body() -> str:
        rng = SplitMix64(0x7777)
        for i in range(500):
            gens = random_generator_set(
                rng.spawn(), max_atoms=6, max_gens=4, max_ambient=4
            )
            context = gens.context
            p = _identity_partition(context, rng)
            xs = [_span_member(gens, rng) for _ in p.pieces]
            mixed = mix_vectors(p, xs)
            assert membership(mixed, gens, context.full()).contained, (
                f"mixing case {i}: mixed combination left the span"
            )
        for i in range(500):
            field = ACCEPTANCE_FIELDS[i % len(ACCEPTANCE_FIELDS)]
            d = 1 + rng.below(6)
            context = AtomSet(default_labels(d))
            x = random_vector(field, context, 1 + rng.below(4), rng)
            p = _identity_partition(context, rng)
            parts = split_product(x, p)
            assert mix_vectors(p, parts) == x, f"product case {i}: round trip failed"
        return "500/500 mixings stay members; 500/500 split/reassemble round trips"

    run_criterion(acceptance, 7, body)


def test_criterion_8_homogeneous_gluing(acceptance):
    def body() -> str:
        halves_checked = 0
        for idx, (gens, pp) in enumerate(corpus()):
            context = gens.context
            for entry in pp.entries:
                piece, rank = entry.piece, entry.rank
                assert kappa(gens, piece) == rank, (
                    f"module {idx}: piece {piece.render()} not homogeneous"
                )
                indices = piece.atom_indices()
                if len(indices) < 2:
                    continue
                half = len(indices) // 2
                mask_a = 0
                for q in indices[:half]:
                    mask_a |= 1 << q
                part_a = Idempotent(context, mask_a)
                part_b = Idempotent(context, piece.mask ^ mask_a)
                assert kappa(gens, part_a) == rank, f"module {idx}: left half drifts"
                assert kappa(gens, part_b) == rank, f"module {idx}: right half drifts"
                assert kappa(gens, part_a | part_b) == rank, (
                    f"module {idx}: join of equal-rank halves loses homogeneity"
                )
                halves_checked += 1
        return (
            f"all passport pieces of the {CORPUS_SIZE}-module corpus are strictly "
            f"homogeneous; {halves_checked} disjoint half-splits glue at equal rank"
        )

    run_criterion(acceptance, 8, body)
