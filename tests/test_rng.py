import hashlib
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from antiassoc import AaaElement, EmptyAlphabetError, serialize, zero
from antiassoc.checks import random_rational_element
from antiassoc.rng import SplitMix64, Xoshiro256StarStar, raaa

# Published reference outputs for SplitMix64 with seed 1234567.
SPLITMIX_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]

# xoshiro256** from raw state (1, 2, 3, 4).  The first two values follow
# from the update rule by hand: rotl(2*5, 7)*9 = 11520, then s1 becomes 0
# so the next output is rotl(0, 7)*9 = 0.
XOSHIRO_1234 = [
    11520,
    0,
    1509978240,
    1215971899390074240,
    1216172134540287360,
    607988272756665600,
]

# Full chain: state seeded from SplitMix64(42), then xoshiro256** outputs.
XOSHIRO_SEED42 = [
    1546998764402558742,
    6990951692964543102,
    12544586762248559009,
    17057574109182124193,
    18295552978065317476,
]

RAAA_0_TEXT = (
    "+8a +5b +1a.a +1a.b +3a.c +3b.a +1d.a "
    "+3(a.c)b +2(b.c)d +2(b.d)d +4(d.a)b +4(d.d)b"
)

# sha256 of serialize(raaa(seed, alphabet=p0..p39, n1=n2=n3=300)), recorded
# from the term-at-a-time draw that preceded block draws.
RAAA_300_SHA256 = {
    1: "e6d02cfbb0e67487c7d4c313bc9e8730100efe0c2506e2c4eccb539ce20d5f89",
    987654321: "80944908aa73c81c5eb3df4fda89b48879ad439e2399f105e13f75e855afda3d",
}

# serialize(random_rational_element(seed)), recorded before the draw moved
# into checks._scalar; the draws and their order must not change.
RATIONAL_ELEMENT_TEXT = {
    0: "+7/5c.b +2/9foo.foo -1(c.b)d +3/8(d.foo)x1 -3/8(foo.c)c +8/5(foo.foo)foo",
    1: (
        "-2/9foo +7/6x1 -7/8b.foo +1/2d.b +9/5d.x1 -5/8x1.x1 "
        "-3(a.x1)a -5/6(c.b)c +4/3(d.a)b +2/3(foo.a)foo"
    ),
    2: "+2foo.b +1/2(a.foo)foo -4(foo.b)b",
    3: (
        "-5/3c -2foo +1/3b.x1 -9/5d.foo "
        "-7/8(a.d)b -1/2(d.foo)foo -1/7(foo.c)b +1/4(x1.a)x1"
    ),
    7: "+3/4c +7/8foo -6x1 +4/7a.x1",
    42: "+1/3a -1/5foo +9/5foo.foo -7/5foo.x1 -4/5(a.d)foo",
    2**64 - 1: "+5/9a +4/3x1 +1/6a.b -4/3a.c +1d.d -7/6d.foo",
}


class TestGenerators:
    def test_splitmix_reference_sequence(self):
        sm = SplitMix64(1234567)
        assert [sm.next_u64() for _ in range(5)] == SPLITMIX_1234567

    def test_xoshiro_reference_sequence(self):
        rng = Xoshiro256StarStar.from_state(1, 2, 3, 4)
        assert [rng.next_u64() for _ in range(6)] == XOSHIRO_1234

    def test_seeded_chain(self):
        rng = Xoshiro256StarStar(42)
        assert [rng.next_u64() for _ in range(5)] == XOSHIRO_SEED42

    def test_negative_seed_wraps(self):
        assert SplitMix64(-1)._state == (1 << 64) - 1

    def test_outputs_in_range(self):
        rng = Xoshiro256StarStar(7)
        for _ in range(100):
            assert 0 <= rng.next_u64() < (1 << 64)


class TestRaaa:
    def test_deterministic(self):
        assert raaa(123) == raaa(123)

    def test_seed_changes_element(self):
        assert raaa(123) != raaa(124)

    def test_golden_element(self):
        assert serialize(raaa(0)) == RAAA_0_TEXT

    def test_golden_rational_elements(self):
        for seed, text in RATIONAL_ELEMENT_TEXT.items():
            assert serialize(random_rational_element(seed)) == text

    def test_zero_counts_give_zero(self):
        assert raaa(99, n1=0, n2=0, n3=0) == zero()

    def test_empty_alphabet(self):
        with pytest.raises(EmptyAlphabetError):
            raaa(1, alphabet=[])

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            raaa(1, n1=-1)

    def test_bad_coeff_range(self):
        with pytest.raises(ValueError):
            raaa(1, coeff_range=(0, 4))
        with pytest.raises(ValueError):
            raaa(1, coeff_range=(3, 2))

    def test_structure_over_many_seeds(self):
        alphabet = {"a", "b", "c", "d"}
        for seed in range(1000):
            element = raaa(seed)
            for maps, count in (
                (element.singles, 5),
                (element.doubles, 5),
                (element.triples, 5),
            ):
                total = 0
                for key, coeff in maps.items():
                    assert set(key) <= alphabet
                    assert isinstance(coeff, int) and 1 <= coeff <= 4 * count
                    total += coeff
                # the sum of stored coefficients is the sum of all draws
                assert count * 1 <= total <= count * 4

    def test_custom_alphabet_and_counts(self):
        element = raaa(7, alphabet=("p", "q"), n1=2, n2=1, n3=0)
        assert not element.triples
        for key in list(element.singles) + list(element.doubles):
            assert set(key) <= {"p", "q"}


def _reference_raaa(seed, alphabet, counts, coeff_range):
    """raaa drawn term by term: per term, its symbols left to right, then its coefficient."""
    rng = Xoshiro256StarStar(seed)
    lo, hi = coeff_range
    maps = ({}, {}, {})
    for width, count in enumerate(counts, 1):
        for _ in range(count):
            key = tuple(alphabet[rng.below(len(alphabet))] for _ in range(width))
            coeff = lo + rng.below(hi - lo + 1)
            maps[width - 1][key] = maps[width - 1].get(key, 0) + coeff
    return AaaElement(*maps)


_seeds = st.one_of(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=-(1 << 70), max_value=-1),
    st.integers(min_value=1 << 64, max_value=1 << 70),
)
_coeff_ranges = st.integers(1, 50).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 50)))


class TestDrawOrder:
    @given(
        seed=_seeds,
        alphabet=st.lists(st.sampled_from(["a", "b", "x1", "foo", "_", "Z", "a_"]), min_size=1,
                          max_size=7),
        counts=st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
        coeff_range=_coeff_ranges,
    )
    def test_matches_the_term_by_term_reference(self, seed, alphabet, counts, coeff_range):
        n1, n2, n3 = counts
        assert raaa(seed, alphabet, n1, n2, n3, coeff_range) == _reference_raaa(
            seed, alphabet, counts, coeff_range
        )

    @pytest.mark.parametrize("seed", sorted(RAAA_300_SHA256))
    def test_golden_large_elements(self, seed):
        alphabet = tuple(f"p{i}" for i in range(40))
        text = serialize(raaa(seed, alphabet=alphabet, n1=300, n2=300, n3=300))
        assert hashlib.sha256(text.encode()).hexdigest() == RAAA_300_SHA256[seed]

    def test_memory_does_not_grow_with_the_term_count(self):
        raaa(0)  # a first call may fill caches that later calls reuse
        tracemalloc.start()
        try:
            raaa(1, n3=4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 16,000 draws of these 4,000 terms would take about 0.7 MB if
        # listed at once; a block of terms takes a few kB.
        assert peak < 256 * 1024
