import pickle

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


def test_batch_partial_lane_advance():
    batch = XoshiroBatch(np.array([10, 11, 12], dtype=np.uint64))
    ref = [Xoshiro256(s) for s in (10, 11, 12)]
    batch.next_u64(np.array([0, 2]))
    ref[0].next_u64()
    ref[2].next_u64()
    vec = batch.next_u64()
    assert [int(v) for v in vec] == [r.next_u64() for r in ref]


@pytest.mark.parametrize("bound", [1, 2, 7, 100, 10**6])
def test_next_below_range_and_batch_agreement(bound):
    rng = Xoshiro256(42)
    batch = XoshiroBatch(np.array([42] * 1, dtype=np.uint64))
    for _ in range(300):
        value = rng.next_below(bound)
        assert 0 <= value < bound
        assert batch.next_below(bound)[0] == value


def test_take_copies_state():
    batch = XoshiroBatch(np.array([1, 2, 3], dtype=np.uint64))
    sub = batch.take(np.array([1]))
    first_from_sub = sub.next_u64()[0]
    # advancing the copy must not disturb the parent
    vec = batch.next_u64()
    assert int(vec[1]) == int(first_from_sub)


def test_multi_draw_is_successive_draws():
    seeds = np.array([7, 8, 9, 10], dtype=np.uint64)
    a, b = XoshiroBatch(seeds), XoshiroBatch(seeds)
    rows = a.next_u01(count=3)
    assert rows.shape == (3, 4)
    for row in rows:
        assert row.tolist() == b.next_u01().tolist()
    assert a.next_u64().tolist() == b.next_u64().tolist()


def test_pickled_batch_advances_its_own_state():
    # the copy's row views must point into its own state, so that lanes
    # taken after it has advanced carry the advanced state
    ref = XoshiroBatch(np.arange(4, dtype=np.uint64))
    batch = XoshiroBatch(np.arange(4, dtype=np.uint64))
    batch.next_u64()
    ref.next_u64()
    copy = pickle.loads(pickle.dumps(batch))
    copy.next_u64()
    ref.next_u64()
    lanes = np.array([1, 3])
    assert copy.take(lanes).next_u64().tolist() == ref.next_u64()[lanes].tolist()


def test_concatenate_keeps_lane_order():
    a = XoshiroBatch(np.array([1, 2], dtype=np.uint64))
    b = XoshiroBatch(np.array([3], dtype=np.uint64))
    a.next_u64()
    both = XoshiroBatch.concatenate([a, b])
    assert both.next_u64().tolist() == a.next_u64().tolist() + b.next_u64().tolist()
