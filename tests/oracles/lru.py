"""The one-access-at-a-time ``OrderedDict`` LRU: the simulator's oracle.

These are the cache, TLB and memory-hierarchy models as they were before
the vectorized kernel (:mod:`repro.uarch.lru`): every access is one
dictionary lookup plus ``move_to_end`` or an insertion and LRU
``popitem``, and :class:`RefMemorySystem` walks each call through the
levels the moment it is made, with no queue.  Property and exactness
tests compare the production classes with these, hit for hit, state for
state and float for float.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.uarch.hierarchy import MemorySystem


class _RefLru:
    """Per-set ``OrderedDict`` true-LRU with weighted statistics."""

    def __init__(self, num_sets: int, ways: int):
        self._sets = [OrderedDict() for _ in range(num_sets)]
        self._ways = ways
        self.accesses = 0.0
        self.misses = 0.0

    def _touch(self, key: int) -> bool:
        entries = self._sets[key % len(self._sets)]
        if key in entries:
            entries.move_to_end(key)
            return True
        entries[key] = True
        if len(entries) > self._ways:
            entries.popitem(last=False)
        return False

    def _install(self, key: int) -> None:
        entries = self._sets[key % len(self._sets)]
        entries[key] = True      # a resident key keeps its position
        if len(entries) > self._ways:
            entries.popitem(last=False)

    def _touch_many(self, keys, weights) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        hits = np.array([self._touch(k) for k in keys.tolist()], dtype=bool)
        if not keys.size:
            return hits
        if np.ndim(weights) == 0:
            self.accesses += float(weights) * keys.size
            self.misses += float(weights) * int((~hits).sum())
        else:
            weights = np.asarray(weights, dtype=np.float64)
            self.accesses += float(weights.sum())
            if not hits.all():
                self.misses += float(weights[~hits].sum())
        return hits

    def _order(self, index: int) -> list:
        return list(self._sets[index])


class RefCache(_RefLru):
    """Reference for :class:`repro.uarch.cache.Cache`."""

    def __init__(self, config):
        super().__init__(config.num_sets, config.ways)
        self.config = config

    def access(self, line_addr: int, weight: float = 1.0) -> bool:
        return bool(self.access_many([line_addr], weight)[0])

    def access_many(self, line_addrs, weights=1.0) -> np.ndarray:
        return self._touch_many(line_addrs, weights)

    def prime_many(self, line_addrs) -> None:
        for key in np.asarray(line_addrs, dtype=np.int64).tolist():
            self._install(key)

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr % len(self._sets)]

    def lru_order(self, index: int) -> list:
        return self._order(index)


class RefTlb(_RefLru):
    """Reference for :class:`repro.uarch.tlb.Tlb`."""

    def __init__(self, config):
        super().__init__(1, config.entries)
        self.config = config
        self._page_bits = config.page_size.bit_length() - 1

    def access(self, addr: int, weight: float = 1.0) -> bool:
        return bool(self.access_many([addr], weight)[0])

    def access_many(self, addrs, weights=1.0) -> np.ndarray:
        return self._touch_many(
            np.asarray(addrs, dtype=np.int64) >> self._page_bits, weights)

    def prime_many(self, addrs) -> None:
        for page in (np.asarray(addrs, dtype=np.int64)
                     >> self._page_bits).tolist():
            self._install(page)

    def lru_order(self) -> list:
        return self._order(0)


class RefMemorySystem(MemorySystem):
    """:class:`MemorySystem` on the reference levels, simulating every
    call as it is made (nothing is ever queued)."""

    def __init__(self, machine, events):
        super().__init__(machine, events)
        self.l1i = RefCache(machine.l1i)
        self.l1d = RefCache(machine.l1d)
        self.l2 = RefCache(machine.l2)
        self.l3 = RefCache(machine.l3) if machine.l3 is not None else None
        self.itlb = RefTlb(machine.itlb)
        self.dtlb = RefTlb(machine.dtlb)

    def data_access(self, addresses, weight: float, is_write: bool = False) -> None:
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return
        self.dtlb.access_many(addresses, weight)
        lines = addresses >> self._line_bits
        to_l2 = lines[~self.l1d.access_many(lines, weight)]
        if to_l2.size == 0:
            return
        llc_misses = to_l2[~self.l2.access_many(to_l2, weight)]
        if self.l3 is not None and llc_misses.size:
            llc_misses = llc_misses[~self.l3.access_many(llc_misses, weight)]
        if llc_misses.size:
            self.events.mem_bytes += (
                int(llc_misses.size) * weight * self.REAL_LINE_SIZE
                * self.MEM_TRAFFIC_AMPLIFICATION
            )

    def inst_fetch(self, addresses, weight: float) -> None:
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return
        self.itlb.access_many(addresses, weight)
        hits = self.l1i.access_many(addresses >> self._line_bits, weight)
        l1_miss_count = int(addresses.size) - int(hits.sum())
        if not l1_miss_count:
            return
        l2_in = l1_miss_count * weight
        l2_miss = l2_in * self.CODE_L2_MISS_RATE
        self._code_l2_accesses += l2_in
        self._code_l2_misses += l2_miss
        if self.l3 is not None:
            l3_miss = l2_miss * self.CODE_L3_MISS_RATE
            self._code_l3_accesses += l2_miss
            self._code_l3_misses += l3_miss
        else:
            l3_miss = l2_miss
        self.events.mem_bytes += (
            l3_miss * self.REAL_LINE_SIZE * self.MEM_TRAFFIC_AMPLIFICATION
        )
