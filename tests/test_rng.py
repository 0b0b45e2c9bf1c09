import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nld import SplitMix64, derive_seed

from conftest import normal, randint, uniform


# First outputs of the reference splitmix64 stream for seed 0 and a
# nonzero seed, as published with the algorithm.
REFERENCE_SEED_0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]
REFERENCE_SEED_1234567 = [
    0x599ED017FB08FC85,
    0x2C73F08458540FA5,
    0x883EBCE5A3F27C77,
]


def test_matches_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == REFERENCE_SEED_0
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == REFERENCE_SEED_1234567


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_uniform_range_and_determinism():
    rng = SplitMix64(7)
    vals = [uniform(rng) for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_normals_moments_and_shape():
    rng = SplitMix64(11)
    x = rng.normals((4000,))
    assert x.shape == (4000,)
    assert abs(float(np.mean(x))) < 0.05
    assert abs(float(np.std(x)) - 1.0) < 0.05
    y = rng.normals((3, 5))
    assert y.shape == (3, 5)


def test_randint_range():
    rng = SplitMix64(13)
    vals = [randint(rng, 6) for _ in range(600)]
    assert set(vals) == {0, 1, 2, 3, 4, 5}


def test_shuffle_is_permutation():
    rng = SplitMix64(17)
    items = list(range(30))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_derive_seed_depends_on_every_part():
    base = derive_seed(0, "param", "block0.W1")
    assert base == derive_seed(0, "param", "block0.W1")
    assert base != derive_seed(1, "param", "block0.W1")
    assert base != derive_seed(0, "param", "block0.W2")
    assert base != derive_seed(0, "batch", "block0.W1")
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


def test_derive_seed_accepts_ints_and_strings():
    assert isinstance(derive_seed(3, "x", 9), int)
    with pytest.raises(TypeError):
        derive_seed(3, 1.5)


# Block draws against the scalar stream.  The scalar ``next_u64`` and the
# conftest ``uniform``, ``normal`` and ``randint`` built on it are the oracle.

SEEDS = st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)
LENGTHS = st.sampled_from([0, 1, 7]) | st.integers(0, 65)


def scalar_shuffle(rng, seq):
    for i in range(len(seq) - 1, 0, -1):
        j = randint(rng, i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def scalar_draw(rng, kind, n):
    if kind == "u64s":
        return np.array([rng.next_u64() for _ in range(n)], dtype=np.uint64)
    if kind == "uniforms":
        return np.array([-0.5 + (2.0 - -0.5) * uniform(rng) for _ in range(n)])
    if kind == "normals":
        return np.array([normal(rng) for _ in range(n)])
    if kind == "shuffle":
        items = list(range(n))
        scalar_shuffle(rng, items)
        return np.array(items)
    return np.array([rng.next_u64()], dtype=np.uint64)


def block_draw(rng, kind, n):
    if kind == "u64s":
        return rng.u64s(n)
    if kind == "uniforms":
        return rng.uniforms((n,), -0.5, 2.0)
    if kind == "normals":
        return rng.normals((n,))
    if kind == "shuffle":
        items = list(range(n))
        rng.shuffle(items)
        return np.array(items)
    return np.array([rng.next_u64()], dtype=np.uint64)


BLOCK_KINDS = ["u64s", "uniforms", "normals", "shuffle"]


@pytest.mark.parametrize("kind", BLOCK_KINDS)
@given(seed=SEEDS, n=LENGTHS)
@example(seed=0, n=0)
@example(seed=2**64 - 1, n=1)
@example(seed=2**64 - 1, n=33)
def test_block_draws_equal_scalar_stream(kind, seed, n):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    got = block_draw(block, kind, n)
    want = scalar_draw(scalar, kind, n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # The block leaves the state where the scalar draws did.
    assert block.next_u64() == scalar.next_u64()


@given(
    seed=SEEDS,
    ops=st.lists(st.tuples(st.sampled_from(BLOCK_KINDS + ["next_u64"]), LENGTHS), max_size=6),
)
def test_interleaved_block_and_scalar_draws_share_one_stream(seed, ops):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    for kind, n in ops:
        assert block_draw(block, kind, n).tobytes() == scalar_draw(scalar, kind, n).tobytes()
    assert block.next_u64() == scalar.next_u64()


def test_block_draws_keep_their_shape():
    rng = SplitMix64(5)
    assert rng.u64s(4).dtype == np.uint64
    assert rng.normals((3, 5)).shape == (3, 5)
    assert rng.normals(6).shape == (6,)
    assert rng.uniforms((2, 0)).shape == (2, 0)
