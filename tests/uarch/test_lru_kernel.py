"""The vectorized LRU kernel against the ``OrderedDict`` oracle.

Every property drives a production :class:`Cache` or :class:`Tlb` and the
reference of ``tests/oracles/lru.py`` with the same batches and checks,
batch by batch, the hit arrays, the LRU -> MRU order of every touched set
and the weighted statistics (exactly: both add the same float expressions).
State is carried across batches, so a property covers a kernel call that
starts from a warm, partly filled or full state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.lru import RefCache, RefTlb
from repro.uarch import lru
from repro.uarch.cache import Cache, CacheConfig
from repro.uarch.tlb import Tlb, TlbConfig

#: (num_sets, ways): one set, fully associative, small and many sets,
#: and the E5645's non-power-of-two L3 (contracted and full size).
GEOMETRIES = [(1, 1), (1, 4), (1, 64), (2, 3), (8, 8), (64, 8), (12, 2),
              (1536, 16), (12288, 16)]


def _config(num_sets, ways):
    return CacheConfig("c", num_sets * ways * 64, ways=ways, line_size=64)


def _touched_state(cache, keys):
    sets = sorted({k % cache.config.num_sets for k in keys})
    return {s: cache.lru_order(s) for s in sets}


def _check_batches(config, batches, weights):
    cache, ref = Cache(config), RefCache(config)
    seen = []
    for batch, weight in zip(batches, weights):
        batch = np.asarray(batch, dtype=np.int64)
        got = cache.access_many(batch, weight)
        want = ref.access_many(batch, weight)
        assert got.dtype == bool and np.array_equal(got, want)
        seen.extend(batch.tolist())
        assert _touched_state(cache, seen) == _touched_state(ref, seen)
        assert cache.accesses == ref.accesses
        assert cache.misses == ref.misses
    assert cache.resident_lines == sum(
        len(order) for order in _touched_state(ref, seen).values())


@st.composite
def streams(draw, max_batches=4, max_len=120):
    """Batches over one geometry: keys from a pool a little larger than
    the cache (so lines are reused and evicted), with runs of
    consecutive repeats, and empty and 1-element batches."""
    num_sets, ways = draw(st.sampled_from(GEOMETRIES))
    pool = draw(st.integers(1, 3 * num_sets * ways + 2))
    step = draw(st.sampled_from([1, num_sets]))   # step=num_sets: one set
    base = draw(st.sampled_from([0, 1 << 40]))
    runs = st.lists(st.tuples(st.integers(0, pool - 1), st.integers(1, 3)),
                    max_size=max_len)
    batches = []
    for _ in range(draw(st.integers(1, max_batches))):
        batch = [base + key * step for key, times in draw(runs)
                 for _ in range(times)]
        batches.append(batch)
    weights = []
    for batch in batches:
        if draw(st.booleans()):
            weights.append(draw(st.floats(0.5, 4096.0)))
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
            weights.append(rng.random(len(batch)) * 100.0)
    return (num_sets, ways), batches, weights


@given(streams())
@settings(max_examples=300, deadline=None)
def test_cache_matches_oracle(case):
    (num_sets, ways), batches, weights = case
    _check_batches(_config(num_sets, ways), batches, weights)


@given(st.integers(1, 16), st.lists(st.lists(
    st.integers(0, 2 ** 62), max_size=60), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_keys_too_wide_to_pack_match_oracle(ways, batches):
    """Keys spanning more than the packed sort key can hold."""
    pool = sorted(set(k for b in batches for k in b))[:ways + 3] or [0]
    # re-touch a few lines so wide keys are reused, not only first-touched
    batches = [b + pool for b in batches]
    _check_batches(_config(1, ways), batches, [1.0] * len(batches))
    _check_batches(_config(3, ways), batches, [2.0] * len(batches))


@given(st.integers(1, 8), st.integers(2, 40),
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
       st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_long_windows_with_few_distinct_lines(ways, length, hot, seed):
    """The DTLB case: reuse windows far longer than ``ways`` that hold
    fewer than ``ways`` distinct lines, mixed with windows that do not."""
    rng = np.random.default_rng(seed)
    hot = np.array(hot[:ways], dtype=np.int64)
    stream = rng.choice(hot, size=length * 10)
    cold = rng.integers(0, 10 ** 6, size=length)
    stream[rng.integers(0, stream.size, size=length // 4)] = cold[:length // 4]
    batches = np.array_split(stream, 3)
    _check_batches(_config(1, ways), batches, [1.0, 2.0, 3.0])
    _check_batches(_config(2, ways), batches, [1.0, 2.0, 3.0])


@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 16),
       st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_window_counts_match_brute_force(ways, extra, copies, seed):
    """``_few_distinct`` on every long reuse window of a stream, each
    asked ``copies`` times, so both the plain scan and the sliding-count
    shortcut (taken when many windows are asked) decide them."""
    stream = np.random.default_rng(seed).integers(0, ways + extra, size=300)
    prev, last = [], {}
    for pos, key in enumerate(stream.tolist()):
        prev.append(last.get(key, -1))
        last[key] = pos
    windows = [(p, q) for q, p in enumerate(prev) if p >= 0 and q - p > ways]
    expected = [len(set(stream[p + 1:q].tolist())) < ways for p, q in windows]
    starts = np.array([p for p, _ in windows] * copies, dtype=np.int64)
    ends = np.array([q for _, q in windows] * copies, dtype=np.int64)
    got = lru._few_distinct(np.array(prev, dtype=np.int64), starts, ends, ways)
    assert got.tolist() == expected * copies


@pytest.mark.parametrize("num_sets,ways,span", [
    (1, 64, 90), (1, 16, 40), (8, 8, 100), (64, 8, 700), (1536, 16, 30000),
    (1, 4, 6),
])
def test_large_batches_match_oracle(num_sets, ways, span):
    """Batches big enough to need several window-scan rounds and row
    blocks (thousands of unsettled windows, windows past SCAN_WIDTH)."""
    rng = np.random.default_rng(num_sets * 1000 + ways)
    hot = rng.integers(0, span, size=40_000)
    # bursts of immediate repeats and a slowly drifting hot set
    keys = np.repeat(hot + np.arange(hot.size) // 5000, rng.integers(1, 4, hot.size))
    _check_batches(_config(num_sets, ways), np.array_split(keys, 4),
                   [8.0, 8.0, 0.5, 8.0])


@given(st.sampled_from(GEOMETRIES), st.lists(st.tuples(
    st.booleans(), st.lists(st.integers(0, 200), max_size=40)), max_size=6))
@settings(max_examples=100, deadline=None)
def test_prime_then_access_matches_oracle(geometry, steps):
    """Priming installs new lines at MRU without promoting resident ones;
    accesses then continue from the primed state."""
    num_sets, ways = geometry
    config = _config(num_sets, ways)
    cache, ref = Cache(config), RefCache(config)
    seen = []
    for prime, keys in steps:
        if prime:
            cache.prime_many(keys)
            ref.prime_many(keys)
        else:
            assert np.array_equal(cache.access_many(keys),
                                  ref.access_many(keys))
        seen.extend(keys)
        assert _touched_state(cache, seen) == _touched_state(ref, seen)
    assert (cache.accesses, cache.misses) == (ref.accesses, ref.misses)


@given(st.integers(1, 64), st.lists(st.lists(
    st.integers(0, 1 << 24), max_size=80), min_size=1, max_size=4),
    st.floats(1.0, 512.0))
@settings(max_examples=100, deadline=None)
def test_tlb_matches_oracle(entries, batches, weight):
    config = TlbConfig("t", entries=entries)
    tlb, ref = Tlb(config), RefTlb(config)
    for batch in batches:
        # byte addresses: several per page, so pages repeat back to back
        addrs = np.repeat(np.asarray(batch, dtype=np.int64) * 1024, 2)
        assert np.array_equal(tlb.access_many(addrs, weight),
                              ref.access_many(addrs, weight))
        assert tlb.lru_order() == ref.lru_order()
    assert (tlb.accesses, tlb.misses) == (ref.accesses, ref.misses)


@given(st.lists(st.tuples(st.lists(st.integers(0, 300), max_size=30),
                          st.floats(0.5, 64.0)), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_runs_add_statistics_call_by_call(calls):
    """One ``access_many`` over concatenated calls, with ``runs``, adds the
    same floats as one call at a time."""
    config = _config(4, 2)
    cache, ref = Cache(config), RefCache(config)
    keys = np.array([k for batch, _ in calls for k in batch], dtype=np.int64)
    runs = [len(batch) for batch, _ in calls]
    got = cache.access_many(keys, [w for _, w in calls], runs)
    want = np.concatenate([ref.access_many(batch, w) for batch, w in calls]
                          + [np.zeros(0, dtype=bool)])
    assert np.array_equal(got, want)
    assert (cache.accesses, cache.misses) == (ref.accesses, ref.misses)


def test_run_sums():
    flags = np.array([True, False, True, True, False])
    assert lru.run_sums(flags, np.array([2, 0, 3])).tolist() == [1, 0, 2]


def test_scalar_access_is_a_one_element_batch():
    config = _config(12, 2)
    cache, ref = Cache(config), RefCache(config)
    for key in [5, 17, 5, 29, 41, 5, 17]:
        assert cache.access(key, 3.0) == ref.access(key, 3.0)
    assert cache.lru_order(5) == ref.lru_order(5)
    for key in (5, 17, 29, 41):
        assert cache.contains(key) == ref.contains(key)
