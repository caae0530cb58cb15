"""Equivalence tests: the batched cache kernels vs OrderedDict LRU models.

Both cache classes expose a scalar ``access`` (the kernel on one sector) and a
batched ``access_block`` over one replacement state.  These tests check,
against the independent OrderedDict models in ``tests/oracles.py``, that

* the scalar path, the block path, and arbitrary interleavings of the two
  produce bit-identical hit masks,
* splitting a stream into blocks anywhere, including across the kernels'
  internal chunks, never changes a hit (the simulator engine relies on this
  to classify a whole wave's stream at once),
* statistics stay exact under batched updates, and
* adversarial reuse patterns around the capacity boundary are classified
  exactly.

Streams are drawn with hypothesis so duplicates inside one block, repeats
across blocks, and capacity-straddling working sets all occur.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import cache as cache_module
from repro.sim.cache import (LruCache, SetAssociativeCache,
                             SetAssociativeCacheBank)

from oracles import LruModel, SetAssocModel

SECTOR = 32

CACHE_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


@st.composite
def sector_streams(draw):
    """A stream plus block boundaries; small universes force heavy reuse."""
    universe = draw(st.integers(min_value=1, max_value=96))
    length = draw(st.integers(min_value=1, max_value=300))
    stream = draw(st.lists(st.integers(min_value=0, max_value=universe - 1),
                           min_size=length, max_size=length))
    num_cuts = draw(st.integers(min_value=0, max_value=5))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=length),
                                min_size=num_cuts, max_size=num_cuts)))
    return np.asarray(stream, dtype=np.int64), cuts


def run_blocks(cache, stream, cuts, scalar_on_odd=False):
    results = []
    for index, block in enumerate(np.split(stream, cuts)):
        if scalar_on_odd and index % 2 == 1:
            results.extend(cache.access(int(sector)) for sector in block)
        else:
            results.extend(cache.access_block(block).tolist())
    return np.asarray(results, dtype=bool)


class TestLruEquivalence:
    @given(data=sector_streams(), capacity=st.integers(1, 48))
    @CACHE_SETTINGS
    def test_block_matches_model_and_scalar(self, data, capacity):
        stream, cuts = data
        model = LruModel(capacity)
        expected = np.asarray([model.access(int(s)) for s in stream])

        scalar = LruCache(capacity * SECTOR, SECTOR)
        scalar_hits = np.asarray([scalar.access(int(s)) for s in stream])
        assert np.array_equal(scalar_hits, expected)

        blocked = LruCache(capacity * SECTOR, SECTOR)
        assert np.array_equal(run_blocks(blocked, stream, cuts), expected)
        assert blocked.stats.accesses == stream.size
        assert blocked.stats.misses == int(np.count_nonzero(~expected))
        assert blocked.occupancy == len(model.entries)

    @given(data=sector_streams(), capacity=st.integers(1, 48))
    @CACHE_SETTINGS
    def test_dense_universe_path_identical(self, data, capacity):
        stream, cuts = data
        dense = LruCache(capacity * SECTOR, SECTOR,
                         sector_universe=int(stream.max()) + 1)
        sparse = LruCache(capacity * SECTOR, SECTOR)
        assert np.array_equal(run_blocks(dense, stream, cuts),
                              run_blocks(sparse, stream, cuts))

    @given(data=sector_streams(), capacity=st.integers(1, 48))
    @CACHE_SETTINGS
    def test_interleaved_scalar_and_block_calls(self, data, capacity):
        stream, cuts = data
        model = LruModel(capacity)
        expected = np.asarray([model.access(int(s)) for s in stream])
        mixed = LruCache(capacity * SECTOR, SECTOR)
        assert np.array_equal(
            run_blocks(mixed, stream, cuts, scalar_on_odd=True), expected)

    @pytest.mark.parametrize("capacity", [1, 2, 7, 64])
    @pytest.mark.parametrize("delta", [-1, 0, 1, 8])
    def test_cyclic_working_set_at_capacity_boundary(self, capacity, delta):
        """Adversarial reuse: cyclic sweeps straddling the capacity knee."""
        working_set = capacity + delta
        if working_set <= 0:
            pytest.skip("degenerate working set")
        stream = np.tile(np.arange(working_set), 25)
        model = LruModel(capacity)
        expected = np.asarray([model.access(int(s)) for s in stream])
        cache = LruCache(capacity * SECTOR, SECTOR)
        assert np.array_equal(cache.access_block(stream), expected)
        # LRU cannot exploit cyclic reuse beyond its capacity.
        if delta > 0:
            assert not cache.access_block(np.arange(working_set)).any()

    def test_access_many_delegates_to_block(self):
        cache = LruCache(4 * SECTOR, SECTOR)
        misses = cache.access_many([1, 2, 3, 1, 2, 3])
        assert misses == 3
        assert cache.stats.accesses == 6
        assert cache.stats.misses == 3


class TestSetAssociativeEquivalence:
    @given(data=sector_streams(), ways=st.integers(1, 8),
           sets=st.integers(1, 12))
    @CACHE_SETTINGS
    def test_block_matches_model_and_scalar(self, data, ways, sets):
        stream, cuts = data
        cache = SetAssociativeCache(sets * ways * SECTOR, SECTOR, ways=ways)
        model = SetAssocModel(cache.num_sets, cache.ways)
        expected = np.asarray([model.access(int(s)) for s in stream])

        scalar = SetAssociativeCache(sets * ways * SECTOR, SECTOR, ways=ways)
        scalar_hits = np.asarray([scalar.access(int(s)) for s in stream])
        assert np.array_equal(scalar_hits, expected)

        assert np.array_equal(run_blocks(cache, stream, cuts), expected)
        assert cache.stats.accesses == stream.size
        assert cache.stats.misses == int(np.count_nonzero(~expected))

    @given(data=sector_streams(), ways=st.integers(1, 8),
           sets=st.integers(1, 12))
    @CACHE_SETTINGS
    def test_interleaved_scalar_and_block_calls(self, data, ways, sets):
        stream, cuts = data
        cache = SetAssociativeCache(sets * ways * SECTOR, SECTOR, ways=ways)
        model = SetAssocModel(cache.num_sets, cache.ways)
        expected = np.asarray([model.access(int(s)) for s in stream])
        assert np.array_equal(
            run_blocks(cache, stream, cuts, scalar_on_odd=True), expected)

    @pytest.mark.parametrize("ways", [1, 2, 8])
    def test_way_conflict_thrash(self, ways):
        """Adversarial: a conflict set one larger than the ways thrashes."""
        cache = SetAssociativeCache(4 * ways * SECTOR, SECTOR, ways=ways)
        conflict = np.arange(ways + 1) * cache.num_sets  # all map to set 0
        stream = np.tile(conflict, 20)
        model = SetAssocModel(cache.num_sets, cache.ways)
        expected = np.asarray([model.access(int(s)) for s in stream])
        assert np.array_equal(cache.access_block(stream), expected)
        assert not expected[ways + 1:].any()  # pure miss thrash

    def test_access_many_delegates_to_block(self):
        cache = SetAssociativeCache(1024, SECTOR, ways=4)
        misses = cache.access_many([5, 5, 6, 7, 5])
        assert misses == 3
        assert cache.stats.accesses == 5
        assert cache.stats.misses == 3


class TestCacheBank:
    @given(data=sector_streams(), ways=st.integers(1, 4),
           sets=st.integers(1, 6), num_caches=st.integers(1, 4))
    @CACHE_SETTINGS
    def test_bank_matches_independent_caches(self, data, ways, sets,
                                             num_caches):
        stream, cuts = data
        capacity = sets * ways * SECTOR
        rng = np.random.default_rng(stream.size)
        owners = rng.integers(0, num_caches, stream.size)

        singles = [SetAssociativeCache(capacity, SECTOR, ways=ways)
                   for _ in range(num_caches)]
        expected = np.asarray([singles[int(c)].access(int(s))
                               for c, s in zip(owners, stream)])

        bank = SetAssociativeCacheBank(num_caches, capacity, SECTOR,
                                       ways=ways)
        got = np.concatenate(
            [bank.access_block(owner_block, block)
             for owner_block, block in zip(np.split(owners, cuts),
                                           np.split(stream, cuts))])
        assert np.array_equal(got, expected)
        assert bank.stats.accesses == stream.size
        assert bank.stats.misses == int(np.count_nonzero(~expected))

    def test_bank_rejects_mismatched_lengths(self):
        bank = SetAssociativeCacheBank(2, 1024, SECTOR)
        with pytest.raises(ValueError):
            bank.access_block([0], [1, 2])


class TestBlockBoundaries:
    """Hits do not depend on where a stream is cut into blocks or chunks."""

    @given(data=sector_streams(), ways=st.integers(1, 16),
           sets=st.integers(1, 6), num_caches=st.integers(1, 5),
           chunk=st.integers(1, 9))
    @CACHE_SETTINGS
    def test_tiny_kernel_chunks_match_models(self, data, ways, sets,
                                             num_caches, chunk):
        stream, cuts = data
        capacity = sets * ways * SECTOR
        owners = np.random.default_rng(stream.size).integers(
            0, num_caches, stream.size)
        singles = [SetAssocModel(sets, ways) for _ in range(num_caches)]
        expected_bank = np.asarray([singles[int(c)].access(int(s))
                                    for c, s in zip(owners, stream)])
        model = SetAssocModel(sets, ways)
        expected_single = np.asarray([model.access(int(s)) for s in stream])
        lru_model = LruModel(sets * ways)
        expected_lru = np.asarray([lru_model.access(int(s)) for s in stream])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cache_module, "_SET_CHUNK", chunk)
            patch.setattr(cache_module, "_BLOCK_CHUNK", chunk)
            bank = SetAssociativeCacheBank(num_caches, capacity, SECTOR,
                                           ways=ways)
            got_bank = np.concatenate(
                [bank.access_block(owner_block, block)
                 for owner_block, block in zip(np.split(owners, cuts),
                                               np.split(stream, cuts))])
            single = SetAssociativeCache(capacity, SECTOR, ways=ways)
            got_single = run_blocks(single, stream, cuts)
            lru = LruCache(capacity, SECTOR)
            got_lru = run_blocks(lru, stream, cuts)

        assert np.array_equal(got_bank, expected_bank)
        assert np.array_equal(got_single, expected_single)
        assert np.array_equal(got_lru, expected_lru)
        assert bank.occupancy == sum(
            len(entries) for m in singles for entries in m.sets)
        assert single.occupancy == sum(len(entries) for entries in model.sets)

    @given(data=sector_streams(), other=sector_streams(),
           ways=st.integers(1, 16), sets=st.integers(1, 6))
    @CACHE_SETTINGS
    def test_any_split_gives_the_same_hits(self, data, other, ways, sets):
        stream, cuts = data
        other_cuts = [cut for cut in other[1] if cut <= stream.size]
        capacity = sets * ways * SECTOR
        owners = stream % 3
        for make in (lambda: SetAssociativeCache(capacity, SECTOR, ways=ways),
                     lambda: LruCache(capacity, SECTOR)):
            whole = make().access_block(stream)
            assert np.array_equal(run_blocks(make(), stream, cuts), whole)
            assert np.array_equal(run_blocks(make(), stream, other_cuts),
                                  whole)
        whole = SetAssociativeCacheBank(3, capacity, SECTOR, ways=ways) \
            .access_block(owners, stream)
        bank = SetAssociativeCacheBank(3, capacity, SECTOR, ways=ways)
        split = np.concatenate(
            [bank.access_block(owner_block, block)
             for owner_block, block in zip(np.split(owners, cuts),
                                           np.split(stream, cuts))])
        assert np.array_equal(split, whole)
