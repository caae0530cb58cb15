"""Sector-granularity cache models used by the simulator substrate.

Two replacement organizations are provided:

* :class:`LruCache` — fully associative LRU over sectors.  This is the fast
  default used for the large L2 simulations; GPU L2 caches are highly
  associative and indexed with address hashing, so a fully associative LRU is
  a close (slightly optimistic) approximation.
* :class:`SetAssociativeCache` — classic set-indexed LRU with a configurable
  number of ways, used for the per-SM L1 caches and available as an ablation
  for L2.

Both operate on integer *sector indices* (byte address // sector size) and
report hit/miss statistics.  ``access_block(sectors)`` classifies a whole
sector array per call and returns the boolean hit mask; ``access(sector)`` is
the same kernel on one sector.  Splitting a stream into blocks anywhere gives
the same hits (see tests/test_cache_equivalence).

Both kernels rest on one property of LRU: the recency stack evolves
independently of hit outcomes, and an access hits iff fewer than
``capacity`` distinct sectors were used since its previous use of the same
sector (its stack distance is below capacity; Mattson et al., 1970).  So a
block is classified in one pass instead of one access at a time.

* The fully associative LRU stamps every access with a global timestamp;
  the cache holds exactly the ``capacity`` most recently stamped distinct
  sectors, and a stamp's stack distance is the number of live stamps above
  it, read off a sorted snapshot of live stamps.
* A W-way set is a fully associative LRU of capacity W.  The set-associative
  kernel groups a block by (set, time) with one packed-key sort, replays
  each touched set's resident ways in front of its accesses, links every
  access to the previous use of its (set, sector), and counts the distinct
  sectors in between.  The carried state is each set's last W distinct
  sectors.

:class:`SetAssociativeCacheBank` runs many independent set-associative caches
(e.g. one L1 per SM) through a single kernel invocation per block.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from ..obs.metrics import StatsView

#: block-access chunk bound: limits the worst-case quadratic work of the
#: within-block tie-break corrections (only adversarial streams hit it).
_BLOCK_CHUNK = 8192

#: accesses per set-associative kernel pass: bounds the kernel's temporaries
#: (the engine hands the L1 bank whole chunks of a wave at once).
_SET_CHUNK = 1 << 19


class CacheStats(StatsView):
    """Access statistics of one cache instance.

    A registry-backed view (``repro_cache_*`` counters in ``registry``);
    the public attribute API is unchanged.
    """

    _AREA = "cache"
    _FIELDS = {
        "accesses": "sector accesses observed by this cache instance",
        "misses": "sector accesses that missed in this cache instance",
    }

    def __init__(self, accesses: int = 0, misses: int = 0) -> None:
        super().__init__(accesses=accesses, misses=misses)

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(accesses=self.accesses + other.accesses,
                          misses=self.misses + other.misses)

    def record_block(self, accesses: int, misses: int) -> None:
        """Fold a whole block's counts in at once (batched update)."""
        if accesses < 0 or misses < 0 or misses > accesses:
            raise ValueError("invalid block stats")
        self.accesses += accesses
        self.misses += misses


def _as_sector_array(sectors) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(sectors, dtype=np.int64)).ravel()


def _count_earlier_greater(values: np.ndarray,
                           query_positions: np.ndarray) -> np.ndarray:
    """For each query position q, count i < q with values[i] > values[q].

    Row-chunked O(n_query * n) broadcast; callers bound ``n`` via
    :data:`_BLOCK_CHUNK` so the worst case stays small.
    """
    n = values.size
    positions = np.arange(n)
    out = np.empty(query_positions.size, dtype=np.int64)
    row_chunk = max(1, (1 << 22) // max(n, 1))
    for start in range(0, query_positions.size, row_chunk):
        q = query_positions[start:start + row_chunk]
        mask = (values[np.newaxis, :] > values[q][:, np.newaxis]) \
            & (positions[np.newaxis, :] < q[:, np.newaxis])
        out[start:start + row_chunk] = mask.sum(axis=1)
    return out


class LruCache:
    """Fully associative LRU cache over sector indices.

    ``sector_universe`` optionally declares a dense upper bound on sector
    indices; when given, the sector -> timestamp map is a flat array (the
    fast path the simulator uses), otherwise a dict is used so arbitrary
    sector values work.
    """

    def __init__(self, capacity_bytes: int, sector_bytes: int,
                 sector_universe: Optional[int] = None) -> None:
        if capacity_bytes <= 0 or sector_bytes <= 0:
            raise ValueError("capacity and sector size must be positive")
        if sector_universe is not None and sector_universe <= 0:
            raise ValueError("sector universe must be positive")
        self.capacity_sectors = max(1, capacity_bytes // sector_bytes)
        self.sector_bytes = sector_bytes
        self.stats = CacheStats()
        self._universe = sector_universe
        self._reset_state()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._time = 0
        self._seen = 0
        if self._universe is not None:
            self._last_use_arr: Optional[np.ndarray] = np.full(
                self._universe, -1, dtype=np.int64)
            self._last_use: Optional[Dict[int, int]] = None
        else:
            self._last_use_arr = None
            self._last_use = {}
        #: sorted live timestamps among t < _snap_time (snapshot).
        self._snap = np.empty(0, dtype=np.int64)
        self._snap_time = 0
        #: sorted timestamps retired since the snapshot (both ranges).
        self._removed = np.empty(0, dtype=np.int64)

    def reset(self) -> None:
        self._reset_state()
        self.stats = CacheStats()

    @property
    def occupancy(self) -> int:
        return min(self._seen, self.capacity_sectors)

    # ------------------------------------------------------------------
    # sector -> last-stamp map
    # ------------------------------------------------------------------
    def _lookup_block(self, sectors: np.ndarray) -> np.ndarray:
        if self._last_use_arr is not None:
            return self._last_use_arr[sectors]
        get = self._last_use.get
        return np.fromiter((get(int(s), -1) for s in sectors),
                           dtype=np.int64, count=sectors.size)

    def _store_block(self, sectors: np.ndarray, stamps: np.ndarray) -> None:
        if self._last_use_arr is not None:
            self._last_use_arr[sectors] = stamps
        else:
            store = self._last_use
            for sector, stamp in zip(sectors.tolist(), stamps.tolist()):
                store[sector] = stamp

    # ------------------------------------------------------------------
    # Live-timestamp order statistics
    # ------------------------------------------------------------------
    def _maybe_rebuild(self) -> None:
        if self._removed.size <= max(2048, self._snap.size // 2):
            return
        live = np.concatenate(
            [self._snap,
             np.arange(self._snap_time, self._time, dtype=np.int64)])
        if self._removed.size:
            keep = np.ones(live.size, dtype=bool)
            keep[np.searchsorted(live, self._removed)] = False
            live = live[keep]
        self._snap = live
        self._snap_time = self._time
        self._removed = np.empty(0, dtype=np.int64)

    def _live_above(self, stamps: np.ndarray) -> np.ndarray:
        """Number of live timestamps strictly greater than each value."""
        count = (self._snap.size
                 - np.searchsorted(self._snap, stamps, side="right"))
        count = count + np.maximum(
            self._time - np.maximum(stamps + 1, self._snap_time), 0)
        if self._removed.size:
            count = count - (self._removed.size - np.searchsorted(
                self._removed, stamps, side="right"))
        return count

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def access(self, sector: int) -> bool:
        """Access one sector; returns True on hit."""
        return bool(self.access_block(sector)[0])

    def access_many(self, sectors: Iterable[int]) -> int:
        """Access a sequence of sectors; returns the number of misses.

        Delegates to the batched kernel (one vectorized call, batched stats).
        """
        hits = self.access_block(_as_sector_array(list(sectors)))
        return int(hits.size - np.count_nonzero(hits))

    def access_block(self, sectors) -> np.ndarray:
        """Access a whole sector array; returns the boolean hit mask.

        Equivalent to ``[self.access(s) for s in sectors]``.  Duplicate
        sectors within the block are handled exactly.
        """
        sectors = _as_sector_array(sectors)
        if sectors.size == 0:
            return np.zeros(0, dtype=bool)
        if sectors.size <= _BLOCK_CHUNK:
            hits = self._access_block_chunk(sectors)
        else:
            parts = [self._access_block_chunk(sectors[start:start + _BLOCK_CHUNK])
                     for start in range(0, sectors.size, _BLOCK_CHUNK)]
            hits = np.concatenate(parts)
        self.stats.record_block(sectors.size,
                                int(sectors.size - np.count_nonzero(hits)))
        return hits

    def _access_block_chunk(self, sectors: np.ndarray) -> np.ndarray:
        n = sectors.size
        cap = self.capacity_sectors
        start_time = self._time
        prev_state = self._lookup_block(sectors)

        # Previous occurrence of each sector *within* the block.
        order = np.argsort(sectors, kind="stable")
        sorted_sectors = sectors[order]
        same_as_prev = np.empty(n, dtype=bool)
        same_as_prev[0] = False
        same_as_prev[1:] = sorted_sectors[1:] == sorted_sectors[:-1]
        prev_in_block = np.full(n, -1, dtype=np.int64)
        if same_as_prev.any():
            repeat_sorted = np.flatnonzero(same_as_prev)
            prev_in_block[order[repeat_sorted]] = order[repeat_sorted - 1]

        positions = np.arange(n, dtype=np.int64)
        is_repeat = prev_in_block >= 0
        is_known_first = ~is_repeat & (prev_state >= 0)
        repeats_before = np.cumsum(is_repeat) - is_repeat
        hits = np.zeros(n, dtype=bool)

        # --- repeats: at most (gap) distinct stamps can sit above the
        # within-block previous stamp, so a short gap is a guaranteed hit.
        if is_repeat.any():
            repeat_pos = positions[is_repeat]
            repeat_prev = prev_in_block[is_repeat]
            gap = repeat_pos - 1 - repeat_prev
            easy = gap < cap
            hits[repeat_pos[easy]] = True
            hard = np.flatnonzero(~easy)
            if hard.size:
                # exact: subtract block stamps already retired by an even
                # earlier repeat of another sector.
                retired = _count_earlier_greater(repeat_prev, hard)
                hits[repeat_pos[hard]] = (gap[hard] - retired) < cap

        # --- first occurrences of sectors the cache has seen before.
        if is_known_first.any():
            first_pos = positions[is_known_first]
            prev_stamps = prev_state[is_known_first]
            live0 = self._live_above(prev_stamps)
            # Stamps added by the block before each position, minus block
            # stamps already retired within the block.
            base = live0 + (first_pos - repeats_before[first_pos])
            known_before = np.cumsum(is_known_first) - is_known_first
            max_retired = known_before[first_pos]
            sure_hit = base < cap
            hits[first_pos[sure_hit]] = True
            ambiguous = np.flatnonzero(~sure_hit & (base - max_retired < cap))
            if ambiguous.size:
                # exact: earlier known-firsts retired their state stamps; only
                # those above ours shrink the count.
                retired = _count_earlier_greater(prev_stamps, ambiguous)
                hits[first_pos[ambiguous]] = (base[ambiguous] - retired) < cap

        # --- state update (stamp evolution is independent of hit results).
        retired_state = prev_state[is_known_first]
        retired_block = start_time + prev_in_block[is_repeat]
        if retired_state.size or retired_block.size:
            self._removed = np.concatenate(
                [self._removed, retired_state, retired_block])
            self._removed.sort()
        is_last_sorted = np.empty(n, dtype=bool)
        is_last_sorted[:-1] = sorted_sectors[1:] != sorted_sectors[:-1]
        is_last_sorted[-1] = True
        last_positions = order[is_last_sorted]
        self._store_block(sectors[last_positions], start_time + last_positions)
        self._seen += int(np.count_nonzero(~is_repeat & (prev_state < 0)))
        self._time = start_time + n
        self._maybe_rebuild()
        return hits


def _distinct_below(prev: np.ndarray, start: np.ndarray, stop: np.ndarray,
                    limit: int) -> np.ndarray:
    """Whether fewer than ``limit`` distinct sectors lie strictly between
    each ``start[i]`` and ``stop[i]`` of a set sequence.

    Position ``r`` brings a sector not yet seen in the window iff its
    previous use ``prev[r]`` lies at or before the window start.  The windows
    are scanned ``2 * limit`` positions per step, and each one drops out as
    soon as its count reaches ``limit`` (a miss) or its window is exhausted.
    """
    below = np.ones(start.size, dtype=bool)
    active = np.arange(start.size)
    count = np.zeros(start.size, dtype=start.dtype)
    cursor = start + 1
    steps = np.arange(2 * limit, dtype=start.dtype)
    while active.size:
        window = cursor[:, np.newaxis] + steps
        np.minimum(window, prev.size - 1, out=window)  # past `stop` anyway
        fresh = prev[window] <= start[:, np.newaxis]
        fresh &= window < stop[:, np.newaxis]
        count += fresh.view(np.uint8).sum(axis=1, dtype=count.dtype)
        full = count >= limit
        below[active[full]] = False
        cursor += steps.size
        going = np.flatnonzero(~full & (cursor < stop))
        active, start, stop = active[going], start[going], stop[going]
        count, cursor = count[going], cursor[going]
    return below


def _index_dtype(span: int):
    """The narrowest of int32/int64 that holds values below ``span``."""
    return np.int32 if span < np.iinfo(np.int32).max else np.int64


def _key_dtype(span: int):
    """The narrowest of uint32/int64 for non-negative sort keys below
    ``span`` (32-bit sorts are ~2x faster than 64-bit ones)."""
    return np.uint32 if span < np.iinfo(np.uint32).max else np.int64


def _set_lru_chunk(state: np.ndarray, num_sets: int, set_index: np.ndarray,
                   sectors: np.ndarray) -> np.ndarray:
    """Classify one block through per-set LRU state; returns the hit mask.

    ``state`` is a (total_sets, ways) array updated in place: row ``s`` holds
    set ``s``'s resident sectors oldest first, right-aligned, with -1 in
    empty ways.  ``set_index[i]`` is the row of ``sectors[i]`` (non-negative),
    and ``sectors // num_sets`` tells apart the sectors of one row.
    """
    ways = state.shape[1]
    n = sectors.size
    # Accesses grouped by set in time order: one sort of packed keys.
    dtype = _key_dtype(state.shape[0] * n)
    keys = set_index.astype(dtype) * dtype(n) + np.arange(n, dtype=dtype)
    keys.sort()
    sorted_sets = keys // dtype(n)
    order = keys - sorted_sets * dtype(n)
    starts = np.flatnonzero(sorted_sets[1:] != sorted_sets[:-1]) + 1
    starts = np.concatenate([[0], starts])
    touched = sorted_sets[starts]
    del keys, sorted_sets
    num_touched = touched.size
    run_length = np.diff(np.append(starts, n)) + ways

    # Each touched set's sequence: its ways, oldest first, then its accesses.
    length = n + num_touched * ways
    dtype = _index_dtype(length)
    runs = np.arange(num_touched, dtype=dtype)
    access_pos = np.arange(n, dtype=dtype) \
        + np.repeat((runs + 1) * dtype(ways), run_length - ways)
    seq = np.empty(length, dtype=np.int64)
    seq[access_pos] = sectors[order]
    way_pos = (starts + runs * ways)[:, np.newaxis] + np.arange(ways)
    resident = state[touched]
    seq[way_pos] = resident
    seq_run = np.repeat(runs, run_length)

    # Previous use of the same (set, sector): a second packed-key sort by
    # (pair id, position).  Pair ids pack (run, sector // num_sets); each
    # empty way gets an id of its own and is never linked, so every set
    # keeps `ways` distinct entries (they lead their sequence, so no access
    # window holds one).
    tags = seq // num_sets
    tag_span = int(tags.max()) + 1
    empty = way_pos[resident < 0]
    if (num_touched * tag_span + empty.size) * length \
            >= np.iinfo(np.int64).max:  # sparse sectors: pack their ranks
        tags = np.unique(tags, return_inverse=True)[1]
        tag_span = int(tags.max()) + 1
    id_span = num_touched * tag_span + empty.size
    ids = seq_run.astype(np.int64) * tag_span + tags + empty.size
    ids[empty] = np.arange(empty.size)
    del tags, seq_run
    key_dtype = _key_dtype(id_span * length)
    keys = ids.astype(key_dtype) * key_dtype(length) \
        + np.arange(length, dtype=key_dtype)
    del ids
    keys.sort()
    pair_ids = keys // key_dtype(length)
    linked = np.flatnonzero(pair_ids[1:] == pair_ids[:-1])
    del pair_ids
    by_pair = (keys % key_dtype(length)).astype(dtype, copy=False)
    del keys
    later, earlier = by_pair[linked + 1], by_pair[linked]
    del by_pair, linked
    prev = np.full(length, -1, dtype=dtype)
    prev[later] = earlier

    # A hit needs a previous use with fewer than `ways` distinct sectors
    # in between; a gap shorter than `ways` cannot hold that many.
    prev_use = prev[access_pos]
    gap = access_pos - prev_use
    hits_sorted = (prev_use >= 0) & (gap <= ways)
    hard = np.flatnonzero((prev_use >= 0) & (gap > ways))
    if hard.size:
        hits_sorted[hard] = _distinct_below(prev, prev_use[hard],
                                            access_pos[hard], ways)

    # Carried state: each touched set's last `ways` distinct entries.
    is_last = np.ones(length, dtype=bool)
    is_last[earlier] = False
    last_pos = np.flatnonzero(is_last)
    ends = np.searchsorted(last_pos, np.cumsum(run_length))
    state[touched] = seq[last_pos[ends[:, np.newaxis] - ways
                                  + np.arange(ways)]]

    hits = np.empty(n, dtype=bool)
    hits[order] = hits_sorted
    return hits


def _set_lru_access(state: np.ndarray, num_sets: int, set_index: np.ndarray,
                   sectors: np.ndarray) -> np.ndarray:
    """:func:`_set_lru_chunk` over a block of any length."""
    if sectors.size <= _SET_CHUNK:
        return _set_lru_chunk(state, num_sets, set_index, sectors)
    return np.concatenate([
        _set_lru_chunk(state, num_sets, set_index[lo:lo + _SET_CHUNK],
                       sectors[lo:lo + _SET_CHUNK])
        for lo in range(0, sectors.size, _SET_CHUNK)])


class SetAssociativeCache:
    """Set-associative LRU cache over sector indices."""

    def __init__(self, capacity_bytes: int, sector_bytes: int, ways: int = 8) -> None:
        if ways <= 0:
            raise ValueError("ways must be positive")
        if capacity_bytes <= 0 or sector_bytes <= 0:
            raise ValueError("capacity and sector size must be positive")
        total_sectors = max(1, capacity_bytes // sector_bytes)
        self.ways = min(ways, total_sectors)
        self.num_sets = max(1, total_sectors // self.ways)
        self.sector_bytes = sector_bytes
        self.stats = CacheStats()
        self._reset_state()

    def _reset_state(self) -> None:
        # resident sectors per set, oldest first, right-aligned; -1 = empty.
        self._state = np.full((self.num_sets, self.ways), -1, dtype=np.int64)

    def access(self, sector: int) -> bool:
        """Access one sector; returns True on hit."""
        return bool(self.access_block(sector)[0])

    def access_many(self, sectors: Iterable[int]) -> int:
        """Access a sequence of sectors; returns the number of misses.

        Delegates to the batched kernel (one vectorized call, batched stats).
        """
        hits = self.access_block(_as_sector_array(list(sectors)))
        return int(hits.size - np.count_nonzero(hits))

    def access_block(self, sectors) -> np.ndarray:
        """Access a whole sector array; returns the boolean hit mask."""
        sectors = _as_sector_array(sectors)
        if sectors.size == 0:
            return np.zeros(0, dtype=bool)
        hits = _set_lru_access(self._state, self.num_sets,
                              sectors % self.num_sets, sectors)
        self.stats.record_block(sectors.size,
                                int(sectors.size - np.count_nonzero(hits)))
        return hits

    def reset(self) -> None:
        self._reset_state()
        self.stats = CacheStats()

    @property
    def occupancy(self) -> int:
        return int(np.count_nonzero(self._state >= 0))


class SetAssociativeCacheBank:
    """A bank of independent set-associative caches sharing one kernel.

    The simulator keeps one private L1 per SM; classifying every SM's tile
    accesses in a single :meth:`access_block` call amortizes the kernel cost
    across the whole wave instead of paying it per cache.
    """

    def __init__(self, num_caches: int, capacity_bytes: int,
                 sector_bytes: int, ways: int = 8) -> None:
        if num_caches <= 0:
            raise ValueError("num_caches must be positive")
        template = SetAssociativeCache(capacity_bytes, sector_bytes, ways=ways)
        self.num_caches = num_caches
        self.ways = template.ways
        self.num_sets = template.num_sets
        self.sector_bytes = sector_bytes
        self.stats = CacheStats()
        self._reset_state()

    def _reset_state(self) -> None:
        self._state = np.full((self.num_caches * self.num_sets, self.ways),
                              -1, dtype=np.int64)

    def access_block(self, cache_ids, sectors) -> np.ndarray:
        """Access ``sectors[i]`` in cache ``cache_ids[i]``; returns hit mask."""
        sectors = _as_sector_array(sectors)
        cache_ids = _as_sector_array(cache_ids)
        if cache_ids.size != sectors.size:
            raise ValueError("cache_ids and sectors must have equal length")
        if sectors.size == 0:
            return np.zeros(0, dtype=bool)
        set_index = cache_ids * self.num_sets + sectors % self.num_sets
        hits = _set_lru_access(self._state, self.num_sets, set_index, sectors)
        self.stats.record_block(sectors.size,
                                int(sectors.size - np.count_nonzero(hits)))
        return hits

    def reset(self) -> None:
        self._reset_state()
        self.stats = CacheStats()

    @property
    def occupancy(self) -> int:
        return int(np.count_nonzero(self._state >= 0))
