from __future__ import annotations

import pytest

from regmod.rng import SplitMix64, one_word_limit


def test_reference_stream_seed_zero():
    # frozen output of the standard splitmix64 finalizer, seed 0
    r = SplitMix64(0)
    assert [r.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_reference_stream_large_seed():
    r = SplitMix64(1234567)
    assert [r.next64() for _ in range(3)] == [
        0x599ED017FB08FC85,
        0x2C73F08458540FA5,
        0x883EBCE5A3F27C77,
    ]


def test_seed_is_masked_to_64_bits():
    a = SplitMix64(5)
    b = SplitMix64((1 << 64) + 5)
    assert [a.next64() for _ in range(4)] == [b.next64() for _ in range(4)]


def test_below_bounds_and_determinism():
    r = SplitMix64(99)
    draws = [r.below(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    replay = SplitMix64(99)
    assert draws == [replay.below(10) for _ in range(200)]
    assert SplitMix64(0).below(1) == 0


@pytest.mark.parametrize("bound", [2, 97, 2**32, 2**61 - 1, 2**64])
def test_below_is_one_word_modulo_the_bound_up_to_2_64(bound):
    r, replay = SplitMix64(bound), SplitMix64(bound)
    draws = [r.below(bound) for _ in range(10**5)]
    assert draws == [replay.next64() % bound for _ in range(10**5)]


def test_below_redraws_past_the_last_whole_multiple():
    bound = 3 << 62  # a word at or past 3·2^62 would favour the residues below 2^62
    r, replay = SplitMix64(5), SplitMix64(5)
    for _ in range(200):
        word = replay.next64()
        while word >= bound:
            word = replay.next64()
        assert r.below(bound) == word


def test_below_joins_words_past_2_64():
    r, replay = SplitMix64(11), SplitMix64(11)
    draws = [r.below(2**70) for _ in range(200)]
    assert any(d >= 2**64 for d in draws)
    words = [replay.next64() for _ in range(400)]
    assert draws == [(hi % 64) << 64 | lo for hi, lo in zip(words[::2], words[1::2])]


def test_below_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)
    with pytest.raises(ValueError):
        SplitMix64(0).below(-3)


def test_choice_picks_members():
    r = SplitMix64(7)
    items = ("a", "b", "c")
    assert all(r.choice(items) in items for _ in range(50))


def test_spawn_is_deterministic_and_advances_parent():
    parent = SplitMix64(42)
    probe = SplitMix64(42)
    child = parent.spawn()
    assert child.next64() == SplitMix64(probe.next64()).next64()
    # parent continues from its post-spawn state
    assert parent.next64() == probe.next64()


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("k", [0, 1, 2, 1023, 1024, 1025, 4095, 4096, 4097, 3 * 4096 + 5])
def test_words_are_next64_calls(seed, k):
    r, replay = SplitMix64(seed), SplitMix64(seed)
    words = r.words(k)
    assert words == [replay.next64() for _ in range(k)]
    after = r.next64()
    assert after == replay.next64()
    r.rewind(k + 1)
    assert r.words(k + 1) == words + [after]


@pytest.mark.parametrize("j", [0, 1, 7, 4096, 5000])
def test_rewind_replays_the_last_words(j):
    r = SplitMix64(3)
    r.words(10)
    drawn = r.words(j)
    r.rewind(j)
    assert r.words(j) == drawn
    r.rewind(j + 10)
    assert r.words(10 + j)[10:] == drawn


def test_one_word_limit_is_where_below_redraws():
    assert one_word_limit(3 << 62) == 3 << 62  # the redraw bound of the test above
    assert one_word_limit(5) == 2**64 - 1
    assert one_word_limit(1) == one_word_limit(2**64) == 2**64
    assert one_word_limit(2**64 + 1) == one_word_limit(0) == 0
