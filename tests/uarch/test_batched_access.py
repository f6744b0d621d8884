"""Batched simulator paths are equivalent to the scalar reference loops.

``access_many`` / ``prime_many`` decide whole batches with the vectorized
LRU kernel: the replacement state they leave behind (including LRU
*order*) and the hit/miss pattern they report must match the
``OrderedDict`` reference (``tests/oracles/lru.py``) driven one access
at a time, element for element.  Statistics are compared with a tight
tolerance because the batched path multiplies where the loop repeatedly
adds.
"""

import numpy as np
import pytest

from oracles.lru import RefCache, RefMemorySystem, RefTlb
from repro.uarch.cache import Cache, CacheConfig
from repro.uarch.events import PerfEvents
from repro.uarch.hierarchy import MemorySystem, XEON_E5645
from repro.uarch.tlb import Tlb, TlbConfig

CONFIG = CacheConfig("L1", size_bytes=4096, ways=4, line_size=64)


def _addresses(n=4000, span=512, seed=1234):
    """Line numbers with reuse (span smaller than the stream length)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, span, size=n, dtype=np.int64)


def _lru_state(cache):
    """Tag contents of every set in LRU order (oldest first)."""
    return [cache.lru_order(i) for i in range(cache.config.num_sets)]


class TestCacheAccessMany:
    def test_matches_scalar_loop(self):
        addrs = _addresses()
        looped, batched = RefCache(CONFIG), Cache(CONFIG)
        loop_hits = np.array([looped.access(a, 2.0) for a in addrs.tolist()])
        batch_hits = batched.access_many(addrs, 2.0)
        assert np.array_equal(loop_hits, batch_hits)
        assert _lru_state(looped) == _lru_state(batched)
        assert batched.accesses == pytest.approx(looped.accesses, rel=1e-12)
        assert batched.misses == pytest.approx(looped.misses, rel=1e-12)

    def test_weights_array(self):
        addrs = _addresses(n=500)
        weights = np.random.default_rng(7).random(addrs.size) * 10
        looped, batched = RefCache(CONFIG), Cache(CONFIG)
        for a, w in zip(addrs.tolist(), weights.tolist()):
            looped.access(a, w)
        batched.access_many(addrs, weights)
        assert _lru_state(looped) == _lru_state(batched)
        assert batched.accesses == pytest.approx(looped.accesses, rel=1e-12)
        assert batched.misses == pytest.approx(looped.misses, rel=1e-12)

    def test_consecutive_batches_continue_the_state(self):
        addrs = _addresses()
        looped, batched = RefCache(CONFIG), Cache(CONFIG)
        for a in addrs.tolist():
            looped.access(a)
        first, second = addrs[:1500], addrs[1500:]
        h1 = batched.access_many(first)
        h2 = batched.access_many(second)
        assert _lru_state(looped) == _lru_state(batched)
        assert int(looped.misses) == int((~h1).sum() + (~h2).sum())

    def test_empty_batch(self):
        cache = Cache(CONFIG)
        hits = cache.access_many(np.empty(0, dtype=np.int64))
        assert hits.size == 0
        assert cache.accesses == 0.0

    def test_prime_many_matches_scalar_loop(self):
        addrs = _addresses(n=300, span=200)
        looped, batched = RefCache(CONFIG), Cache(CONFIG)
        for a in addrs.tolist():
            looped.prime_many([a])
        batched.prime_many(addrs)
        assert _lru_state(looped) == _lru_state(batched)
        assert batched.accesses == 0.0 and batched.misses == 0.0


class TestTlbAccessMany:
    CONFIG = TlbConfig("TLB", entries=16)

    def test_matches_scalar_loop(self):
        addrs = _addresses(span=40) * 4096 + 17
        looped, batched = RefTlb(self.CONFIG), Tlb(self.CONFIG)
        loop_hits = np.array([looped.access(a, 3.0) for a in addrs.tolist()])
        batch_hits = batched.access_many(addrs, 3.0)
        assert np.array_equal(loop_hits, batch_hits)
        assert looped.lru_order() == batched.lru_order()
        assert batched.accesses == pytest.approx(looped.accesses, rel=1e-12)
        assert batched.misses == pytest.approx(looped.misses, rel=1e-12)

    def test_prime_many_matches_scalar_loop(self):
        addrs = _addresses(n=100, span=30) * 4096
        looped, batched = RefTlb(self.CONFIG), Tlb(self.CONFIG)
        for a in addrs.tolist():
            looped.prime_many([a])
        batched.prime_many(addrs)
        assert looped.lru_order() == batched.lru_order()


class TestMemorySystemBatched:
    """The queued, level-batched hierarchy walk equals the per-address
    walk through the reference levels."""

    @staticmethod
    def _reference_data_access(memsys, addresses, weight):
        """The pre-batching algorithm: one address at a time through
        DTLB -> L1D -> L2 -> L3, counting LLC misses."""
        llc_misses = 0
        line_bits = memsys._line_bits
        for addr in addresses.tolist():
            memsys.dtlb.access(addr, weight)
            line = addr >> line_bits
            if memsys.l1d.access(line, weight):
                continue
            if memsys.l2.access(line, weight):
                continue
            if memsys.l3 is not None and memsys.l3.access(line, weight):
                continue
            llc_misses += 1
        memsys.events.mem_bytes += (
            llc_misses * weight * memsys.REAL_LINE_SIZE
            * memsys.MEM_TRAFFIC_AMPLIFICATION
        )

    def test_data_access_equivalence(self):
        machine = XEON_E5645.contracted(8)
        rng = np.random.default_rng(99)
        batches = [rng.integers(0, 1 << 22, size=3000, dtype=np.int64)
                   for _ in range(3)]

        reference = RefMemorySystem(machine, PerfEvents())
        batched = MemorySystem(machine, PerfEvents())
        for batch in batches:
            self._reference_data_access(reference, batch, weight=8.0)
            batched.data_access(batch, weight=8.0)
        reference.harvest()
        batched.harvest()

        ref, got = reference.events, batched.events
        for name in ("l1d_accesses", "l1d_misses", "l2_accesses", "l2_misses",
                     "l3_accesses", "l3_misses", "dtlb_accesses",
                     "dtlb_misses", "mem_bytes"):
            assert getattr(got, name) == pytest.approx(
                getattr(ref, name), rel=1e-12), name
        assert _lru_state(reference.l1d) == _lru_state(batched.l1d)
        assert _lru_state(reference.l2) == _lru_state(batched.l2)
        assert _lru_state(reference.l3) == _lru_state(batched.l3)

    def test_inst_fetch_statistical_model_unchanged(self):
        machine = XEON_E5645.contracted(8)
        memsys = MemorySystem(machine, PerfEvents())
        addrs = np.random.default_rng(5).integers(
            0, 1 << 20, size=2000, dtype=np.int64)
        memsys.inst_fetch(addrs, weight=16.0)
        memsys.harvest()
        ev = memsys.events
        assert ev.l1i_accesses == pytest.approx(2000 * 16.0)
        l1_miss_weight = ev.l1i_misses
        assert ev.l2_misses == pytest.approx(
            l1_miss_weight * memsys.CODE_L2_MISS_RATE)
        assert ev.l3_accesses == pytest.approx(ev.l2_misses)
