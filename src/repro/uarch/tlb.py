"""TLB model: a small fully-associative LRU translation cache.

Drives the ITLB/DTLB MPKI results of the paper's Figure 6-2.  Pages are
fixed-size (4 KB by default, matching the testbed's Linux configuration);
an access translates a byte address to a page number and looks it up.

A fully-associative TLB is a one-set cache over page numbers, so it runs
on the same exact vectorized LRU kernel as the caches
(:mod:`repro.uarch.lru`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.uarch.lru import LruSets, LruStats


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of one TLB: entry count and page size."""

    name: str
    entries: int
    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError(f"{self.name}: TLB must have at least one entry")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"{self.name}: page size must be a power of two")

    def scaled(self, factor: int) -> "TlbConfig":
        """A proportionally smaller TLB for scaled-down experiments."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return TlbConfig(
            name=self.name,
            entries=max(4, self.entries // factor),
            page_size=self.page_size,
        )


class Tlb(LruStats):
    """Fully-associative LRU TLB."""

    def __init__(self, config: TlbConfig):
        super().__init__()
        self.config = config
        self._page_bits = config.page_size.bit_length() - 1
        self._lru = LruSets(1, config.entries)

    def access(self, addr: int, weight: float = 1.0) -> bool:
        """Translate one byte address; return True on TLB hit."""
        return bool(self.access_many([addr], weight)[0])

    def access_many(self, addrs, weights=1.0, runs=None) -> np.ndarray:
        """Translate a batch of byte addresses in order; return the hit
        array.

        Equivalent to calling :meth:`access` once per element of
        ``addrs``.  ``weights`` and ``runs`` are as for
        :meth:`repro.uarch.cache.Cache.access_many`.
        """
        pages = np.asarray(addrs, dtype=np.int64) >> self._page_bits
        hits = self._lru.access(pages)
        self._count(hits, weights, runs)
        return hits

    def prime_many(self, addrs) -> None:
        """Install a batch of translations without counting statistics.

        Equivalent to calling :meth:`prime` once per element in order.
        """
        self._lru.prime(np.asarray(addrs, dtype=np.int64) >> self._page_bits)

    def prime(self, addr: int) -> None:
        """Install a translation without counting statistics.  A page
        already resident keeps its LRU position."""
        self.prime_many([addr])

    def lru_order(self) -> list:
        """Resident page numbers, least recently used first."""
        return self._lru.lines()

    def flush(self) -> None:
        self._lru.clear()
        self.reset_stats()
