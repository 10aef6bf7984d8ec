import numpy as np
import pytest

from crngame.rng import Xoshiro256, XoshiroBatch, child_seed, seed_to_state


def test_child_seed_is_deterministic_and_spread():
    seeds = [child_seed(12345, j) for j in range(1000)]
    assert seeds == [child_seed(12345, j) for j in range(1000)]
    assert len(set(seeds)) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_child_seed_depends_on_master():
    assert child_seed(1, 0) != child_seed(2, 0)


def test_seed_to_state_nonzero():
    # xoshiro256** must never start at the all-zero state
    for seed in (0, 1, 2**64 - 1, 0xDEADBEEF):
        assert any(seed_to_state(seed))


def test_scalar_stream_reproducible():
    a = Xoshiro256(99)
    b = Xoshiro256(99)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_u01_in_half_open_unit_interval():
    rng = Xoshiro256(7)
    draws = [rng.next_u01() for _ in range(10000)]
    assert all(0.0 < u <= 1.0 for u in draws)


def test_batch_lanes_match_scalar_streams():
    seeds = [0, 1, 12345, 2**63 + 17, 2**64 - 1]
    batch = XoshiroBatch(np.array(seeds, dtype=np.uint64))
    scalars = [Xoshiro256(s) for s in seeds]
    for _ in range(200):
        vec = batch.next_u64()
        for lane, rng in enumerate(scalars):
            assert int(vec[lane]) == rng.next_u64()


def test_batch_u01_matches_scalar():
    seeds = np.array([3, 4, 5], dtype=np.uint64)
    batch = XoshiroBatch(seeds)
    scalars = [Xoshiro256(int(s)) for s in seeds]
    for _ in range(100):
        vec = batch.next_u01()
        expect = [rng.next_u01() for rng in scalars]
        assert vec.tolist() == expect


@pytest.mark.parametrize("bound", [1, 2, 7, 100, 10**6])
def test_next_below_range_and_batch_agreement(bound):
    rng = Xoshiro256(42)
    batch = XoshiroBatch(np.array([42] * 1, dtype=np.uint64))
    for _ in range(300):
        value = rng.next_below(bound)
        assert 0 <= value < bound
        assert batch.next_below(bound)[0] == value
