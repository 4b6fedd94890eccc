"""The pinned generator must match the reference C implementations exactly."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multibridge.rng import MASK64, Xoshiro256StarStar, derive_seed, fnv1a64, splitmix64_mix

from oracles import naive_sample_indices

# Golden vectors generated from the public reference C implementations of
# splitmix64 and xoshiro256** (state seeded with four splitmix64 outputs).
SPLITMIX64_GOLDEN = {
    0: [16294208416658607535, 7960286522194355700, 487617019471545679,
        17909611376780542444, 1961750202426094747],
    42: [13679457532755275413, 2949826092126892291, 5139283748462763858,
         6349198060258255764, 701532786141963250],
    123456789: [2466975172287755897, 8832083440362974766, 3534771765162737125,
                9592110948284743397, 1881757512419323243],
}

XOSHIRO_GOLDEN = {
    0: [11091344671253066420, 13793997310169335082, 1900383378846508768,
        7684712102626143532, 13521403990117723737],
    42: [1546998764402558742, 6990951692964543102, 12544586762248559009,
         17057574109182124193, 18295552978065317476],
    123456789: [15127205273500847298, 16265768176396019016, 1514321867679316104,
                9853693475100939714, 16001046604883718113],
}


@pytest.mark.parametrize("seed", sorted(SPLITMIX64_GOLDEN))
def test_splitmix64_matches_reference(seed):
    state = seed
    outputs = []
    for _ in range(5):
        outputs.append(splitmix64_mix(state))
        state = (state + 0x9E3779B97F4A7C15) & MASK64
    assert outputs == SPLITMIX64_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(XOSHIRO_GOLDEN))
def test_xoshiro_matches_reference(seed):
    gen = Xoshiro256StarStar(seed)
    assert [gen.next_u64() for _ in range(5)] == XOSHIRO_GOLDEN[seed]


def test_randbelow_unbiased_range():
    gen = Xoshiro256StarStar(7)
    draws = [gen.randbelow(10) for _ in range(10_000)]
    assert set(draws) <= set(range(10))
    counts = Counter(draws)
    assert min(counts.values()) > 800  # crude uniformity sanity check


def test_randbelow_rejects_nonpositive():
    gen = Xoshiro256StarStar(1)
    with pytest.raises(ValueError):
        gen.randbelow(0)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(50))
    a, b = items[:], items[:]
    Xoshiro256StarStar(99).shuffle(a)
    Xoshiro256StarStar(99).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be the identity


def test_sample_indices_sorted_subset():
    gen = Xoshiro256StarStar(5)
    picks = gen.sample_indices(100, 10)
    assert picks == sorted(picks)
    assert len(set(picks)) == 10
    assert all(0 <= i < 100 for i in picks)
    with pytest.raises(ValueError):
        gen.sample_indices(3, 4)


def test_sample_indices_full_range():
    assert Xoshiro256StarStar(1).sample_indices(5, 5) == [0, 1, 2, 3, 4]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, MASK64), st.integers(1, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example(seed=0, nk=(1, 0))
@example(seed=0, nk=(1, 1))
@example(seed=3, nk=(300, 0))
@example(seed=3, nk=(300, 300))
@example(seed=3, nk=(300, 299))
def test_sample_indices_equals_dense_shuffle_oracle(seed, nk):
    # The dict of displaced slots makes the same draws as shuffling a full
    # list(range(n)), so both return the same indices and leave the
    # generator in the same state.
    n, k = nk
    gen, oracle_gen = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    assert gen.sample_indices(n, k) == naive_sample_indices(oracle_gen, n, k)
    assert gen.next_u64() == oracle_gen.next_u64()


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(1, "bn-hi") == derive_seed(1, "bn-hi")
    assert derive_seed(1, "bn-hi") != derive_seed(1, "bn-ta")
    assert derive_seed(1, "bn-hi") != derive_seed(2, "bn-hi")


def test_fnv1a64_known_vectors():
    # Standard FNV-1a test vectors.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8
