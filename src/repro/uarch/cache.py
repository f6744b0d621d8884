"""Set-associative cache model with LRU replacement.

This is the building block of the simulated memory hierarchy that stands
in for the Xeon E5645 / E5310 hardware counters in the paper's
characterization study.  The model is deliberately simple -- physical
indexing, true LRU, no prefetching -- because the reproduction targets the
paper's *qualitative* cache-behavior findings (relative MPKI orderings and
working-set effects), not cycle accuracy.

Replacement runs on the exact vectorized LRU kernel of
:mod:`repro.uarch.lru`: a batch of accesses is decided with array
operations from the Mattson stack-distance property, and the state
between batches is a ``(num_sets, ways)`` tag array in LRU -> MRU order.

Accesses carry a ``weight``: bulk access patterns are expanded with stride
sampling (:mod:`repro.uarch.sampling`), so one simulated access may stand
for many real ones.  Weights affect the statistics only; the replacement
state is updated once per simulated access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.uarch.lru import LruSets, LruStats


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``size_bytes`` must be a whole number of ``ways * line_size`` sets.
    The set count need not be a power of two (the E5645's 12 MB L3 has
    12,288 sets): a line maps to set ``line % num_sets``.
    """

    name: str
    size_bytes: int
    ways: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_size <= 0:
            raise ValueError(f"{self.name}: sizes and ways must be positive")
        if not _is_power_of_two(self.line_size):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.ways * self.line_size) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"ways*line_size = {self.ways * self.line_size}"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    def scaled(self, factor: int) -> "CacheConfig":
        """A proportionally smaller cache for scaled-down experiments.

        Capacity shrinks by ``factor`` while associativity and line size
        stay fixed, so working-set-versus-capacity crossovers occur at the
        same relative data sizes as on the real machine.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        min_size = self.ways * self.line_size
        new_size = max(min_size, self.size_bytes // factor)
        sets = max(1, new_size // min_size)
        return CacheConfig(
            name=self.name,
            size_bytes=sets * min_size,
            ways=self.ways,
            line_size=self.line_size,
        )


class Cache(LruStats):
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig):
        super().__init__()
        self.config = config
        self._lru = LruSets(config.num_sets, config.ways)

    @property
    def hits(self) -> float:
        return self.accesses - self.misses

    def access(self, line_addr: int, weight: float = 1.0) -> bool:
        """Touch one cache line; return True on hit, False on miss.

        ``line_addr`` is the address already shifted down by the line
        size (a line number, not a byte address).
        """
        return bool(self.access_many([line_addr], weight)[0])

    def access_many(self, line_addrs, weights=1.0, runs=None) -> np.ndarray:
        """Touch a batch of cache lines in order; return the hit array.

        Equivalent to calling :meth:`access` once per element of
        ``line_addrs``.  ``weights`` is one scalar for every access or an
        array of per-access weights -- or, with ``runs``, one weight per
        run: the batch is then ``len(runs)`` consecutive calls' worth of
        accesses (``runs[i]`` of them at ``weights[i]``), and the
        statistics are added run by run exactly as separate calls would.
        """
        line_addrs = np.asarray(line_addrs, dtype=np.int64)
        hits = self._lru.access(line_addrs)
        self._count(hits, weights, runs)
        return hits

    def prime_many(self, line_addrs) -> None:
        """Install a batch of lines without counting statistics.

        Equivalent to calling :meth:`prime` once per element in order.
        """
        self._lru.prime(np.asarray(line_addrs, dtype=np.int64))

    def prime(self, line_addr: int) -> None:
        """Install a line without counting statistics (warm-up priming,
        mirroring the paper's post-ramp-up measurement window).  A line
        already resident keeps its LRU position."""
        self.prime_many([line_addr])

    def contains(self, line_addr: int) -> bool:
        """True if the line is currently resident (no state change)."""
        return self._lru.contains(line_addr)

    def lru_order(self, index: int) -> list:
        """Resident lines of set ``index``, least recently used first."""
        return self._lru.lines(index)

    def flush(self) -> None:
        """Invalidate all lines and clear statistics."""
        self._lru.clear()
        self.reset_stats()

    @property
    def resident_lines(self) -> int:
        return self._lru.occupancy
