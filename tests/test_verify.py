from __future__ import annotations

import hashlib

import pytest

from regmod.rng import SplitMix64
from regmod.verify import PROPERTIES, Property, run_property, run_suite


EXPECTED_NAMES = {
    "regularity_identities",
    "support_of_products",
    "disjoint_inversion_additivity",
    "mixing_uniqueness",
    "step_form_roundtrip",
    "membership_of_combinations",
    "passport_matches_oracle",
    "presentation_invariance",
    "isomorphism_construction",
    "independence_bound",
    "homogeneous_pieces_glue",
    "split_reassemble_roundtrip",
}


def test_suite_covers_expected_properties():
    assert {p.name for p in PROPERTIES} == EXPECTED_NAMES


def test_suite_passes_small():
    results = run_suite(seed=1, cases=20)
    assert all(r.ok for r in results)
    assert all(r.passed == r.cases == 20 for r in results)


def test_suite_deterministic():
    a = run_suite(seed=9, cases=10)
    b = run_suite(seed=9, cases=10)
    assert a == b


def test_failing_property_reports_and_shrinks():
    # ints sampled from a wide range; failure on anything >= 10; shrinking
    # by decrement must land exactly on the boundary case
    prop = Property(
        name="toy_bound",
        generate=lambda rng: 10 + rng.below(1000),
        check=lambda n: None if n < 10 else f"{n} is too big",
        shrink=lambda n: [n - 1] if n > 0 else [],
        describe=lambda n: f"n={n}",
    )
    result = run_property(prop, seed=4, cases=5)
    assert not result.ok
    assert result.passed == 0
    assert result.failure == "10 is too big"
    assert result.counterexample == "n=10"


def test_exception_in_check_is_a_failure():
    def boom(n):
        raise ValueError(f"broke on {n}")

    prop = Property(
        name="toy_raise",
        generate=lambda rng: rng.below(100),
        check=boom,
        shrink=lambda n: [],
        describe=lambda n: f"n={n}",
    )
    result = run_property(prop, seed=0, cases=3)
    assert not result.ok
    assert "broke on" in (result.failure or "")


def test_passing_property_counts_all_cases():
    prop = Property(
        name="toy_pass",
        generate=lambda rng: rng.below(100),
        check=lambda n: None,
        shrink=lambda n: [],
        describe=lambda n: f"n={n}",
    )
    result = run_property(prop, seed=0, cases=50)
    assert result.ok
    assert result.passed == 50
    assert result.failure is None
    assert result.counterexample is None


def _shrink_digest(prop: Property) -> str:
    digest = hashlib.sha256()
    for seed in range(20):
        for candidate in prop.shrink(prop.generate(SplitMix64(seed))):
            digest.update(prop.describe(candidate).encode() + b"\0")
        digest.update(b"\1")
    return digest.hexdigest()


# sha256 over seeds 0-19 of describe(c) for every shrink candidate c, in order;
# the two single-module properties draw and describe the same modules, and so do
# the two module-pair properties, so each of those pairs shares a pin
SHRINK_PINS = {
    "regularity_identities": "5fdbfbe0163e53b98238724f8bfc924facf0de40ebcba74f84c7fa86d9ba988d",
    "support_of_products": "6f031cdce52236427ba3df97765971e6fd15818b6b177a9d253dc2fd7cd4a79e",
    "disjoint_inversion_additivity": "0bedfbe74ad3f7ed14859125d06e1fb825dbee5ee1efbeababe70c99f81ae9c7",
    "step_form_roundtrip": "c3df2f3079da2cd54054abcb2d6f5f9c85ccc5a29fd65f53d5b384d8c1759da0",
    "passport_matches_oracle": "ab5b59158af69ee2efb883aa81225a03b548f10bb977b06ec6ac4b295b3b0ca2",
    "presentation_invariance": "5afa089b8fe28db717001b9ef9fb6c9cb3da897c084b56c0af8e733601794aee",
    "isomorphism_construction": "5afa089b8fe28db717001b9ef9fb6c9cb3da897c084b56c0af8e733601794aee",
    "homogeneous_pieces_glue": "ab5b59158af69ee2efb883aa81225a03b548f10bb977b06ec6ac4b295b3b0ca2",
}


@pytest.mark.parametrize("name", sorted(SHRINK_PINS))
def test_shrink_candidates_are_pinned(name):
    prop = next(p for p in PROPERTIES if p.name == name)
    assert _shrink_digest(prop) == SHRINK_PINS[name]

