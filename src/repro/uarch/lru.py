"""Exact vectorized true-LRU replacement, shared by caches and TLBs.

A set-associative array with true-LRU replacement has the Mattson
stack-distance property (Mattson et al., "Evaluation techniques for
storage hierarchies", IBM Systems Journal 1970): an access hits iff its
line was touched before and fewer than ``ways`` *distinct* lines of its
set were touched since.  The outcome depends only on the access
sequence, never on earlier hit/miss outcomes, so a whole batch can be
decided with array operations instead of one dictionary update per
access.

:class:`LruSets` carries the replacement state between batches as a
``(num_sets, ways)`` tag array, each row in LRU -> MRU order with empty
ways (:data:`EMPTY`) on the LRU side.  One batch is decided as follows:

1. The resident lines of every touched set are prepended to the batch
   (replaying ``k <= ways`` distinct lines from an empty set rebuilds
   that set's state exactly) and the sequence is stably grouped by set.
   Immediate repeats hit the MRU way and change nothing, so they are
   answered and dropped here.
2. One sort of a ``(line << bits) | position`` key gives every access the
   position of the previous access to its line.
3. Most accesses are decided elementwise: first touches miss and reuse
   windows shorter than ``ways`` hit.  The rest need to know whether the
   window holds ``ways`` distinct lines; :func:`_few_distinct` settles
   most with sliding counts over the whole sequence and scans the others
   in bounded chunks.
4. Each touched set's new state is the last ``ways`` distinct lines of
   its sequence, ordered by their last access.

Keys are non-negative integers (line or page numbers); the set of a key
is ``key % num_sets``, which need not be a power of two.
"""

from __future__ import annotations

import numpy as np

#: Tag of an empty way.
EMPTY = -1

#: Window scans cover at most this many queries x positions at a time,
#: which bounds the scan's temporaries (a few MB) whatever the batch.
SCAN_ROWS = 2048
SCAN_WIDTH = 128

_ONE_ROW = np.zeros(1, dtype=np.intp)


class LruStats:
    """Weighted access and miss totals of one cache or TLB level."""

    def __init__(self):
        self.accesses = 0.0
        self.misses = 0.0

    @property
    def miss_rate(self) -> float:
        if self.accesses <= 0:
            return 0.0
        return self.misses / self.accesses

    def reset_stats(self) -> None:
        self.accesses = 0.0
        self.misses = 0.0

    def _count(self, hits: np.ndarray, weights, runs) -> None:
        """Add one batch's statistics: ``weights`` is a scalar, a
        per-access array, or (with ``runs``) one weight per run."""
        if runs is not None:
            runs = np.asarray(runs, dtype=np.int64)
            missed = run_sums(~hits, runs)
            for weight, count, misses in zip(weights, runs.tolist(),
                                             missed.tolist()):
                weight = float(weight)
                self.accesses += weight * count
                self.misses += weight * misses
        elif np.ndim(weights) == 0:
            self.accesses += float(weights) * hits.size
            self.misses += float(weights) * int(hits.size - hits.sum())
        else:
            weights = np.asarray(weights, dtype=np.float64)
            self.accesses += float(weights.sum())
            if not hits.all():
                self.misses += float(weights[~hits].sum())


def run_sums(flags: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Per-run counts of set ``flags``, the array being ``len(runs)``
    consecutive runs of ``runs[i]`` elements."""
    ends = np.cumsum(runs)
    total = np.concatenate(([0], np.cumsum(flags)))
    return total[ends] - total[ends - runs]


class LruSets:
    """True-LRU state of ``num_sets`` sets of ``ways`` ways each."""

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = num_sets
        self.ways = ways
        self.tags = np.full((num_sets, ways), EMPTY, dtype=np.int64)

    def access(self, keys: np.ndarray) -> np.ndarray:
        """Touch ``keys`` in order; return the boolean hit array."""
        n = int(keys.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        ways, num_sets = self.ways, self.num_sets
        if num_sets == 1:
            rows, sets = _ONE_ROW, None
        else:
            sets = (keys & (num_sets - 1) if num_sets & (num_sets - 1) == 0
                    else keys % num_sets)
            touched = np.zeros(num_sets, dtype=bool)
            touched[sets] = True
            rows = np.flatnonzero(touched)
        block = self.tags[rows]
        valid = block != EMPTY
        resident = block[valid]
        r = int(resident.size)
        m = r + n

        # 1. the sequence, grouped by set; ``where`` = position of each key
        if sets is None:
            seq = np.concatenate((resident, keys))
            seq_sets = None
            where = np.arange(r, m)
        else:
            resident_sets = np.broadcast_to(rows[:, None], block.shape)[valid]
            all_sets = np.concatenate((resident_sets, sets)).astype(
                np.min_scalar_type(num_sets - 1))
            order = np.argsort(all_sets, kind="stable")   # radix if <= 16 bits
            seq = np.concatenate((resident, keys))[order]
            seq_sets = all_sets[order]
            where = np.empty(m, dtype=np.int64)
            where[order] = np.arange(m)
            where = where[r:]

        # An immediate repeat hits the MRU way and changes nothing, so
        # repeats are answered here and dropped from the sequence.
        fresh = np.empty(m, dtype=bool)
        fresh[0] = True
        np.not_equal(seq[1:], seq[:-1], out=fresh[1:])
        heads = np.flatnonzero(fresh[where])
        hits = np.ones(n, dtype=bool)
        if heads.size < n:
            seq = seq[fresh]
            if seq_sets is not None:
                seq_sets = seq_sets[fresh]
            where = (np.cumsum(fresh) - 1)[where[heads]]
        else:
            where = where[heads]

        # 2. previous access to the same line, by position
        prev, repeated = _previous(seq)

        # 3. hits: short reuse windows elementwise, the rest by counting
        last_touch = prev[where]
        gap = where - last_touch
        reused = last_touch >= 0
        hit = reused & (gap <= ways)
        hard = np.flatnonzero(reused & (gap > ways))
        if hard.size:
            hit[hard] = _few_distinct(prev, last_touch[hard], where[hard],
                                      ways)
        hits[heads] = hit

        # 4. new state: the last ``ways`` distinct lines of each set
        is_last = np.ones(seq.size, dtype=bool)
        is_last[repeated] = False
        last = np.flatnonzero(is_last)
        if seq_sets is None:
            keep = last[-ways:]
            self.tags[0, :ways - keep.size] = EMPTY
            self.tags[0, ways - keep.size:] = seq[keep]
            return hits
        last_sets = seq_sets[last]
        ends = np.flatnonzero(np.append(last_sets[1:] != last_sets[:-1], True))
        rank = np.repeat(ends, np.diff(ends, prepend=-1)) - np.arange(last.size)
        kept = rank < ways
        self.tags[rows] = EMPTY
        self.tags[last_sets[kept], ways - 1 - rank[kept]] = seq[last[kept]]
        return hits

    def prime(self, keys: np.ndarray) -> None:
        """Install ``keys`` in order without promoting resident ones.

        A resident key keeps its LRU position; a new key enters at the
        MRU end and evicts the LRU way of a full set.  Priming is rare
        (code warm-up), so this is a plain loop over the touched rows.
        """
        rows = {}
        ways = self.ways
        for key in keys.tolist():
            index = key % self.num_sets
            row = rows.get(index)
            if row is None:
                row = rows[index] = [t for t in self.tags[index].tolist()
                                     if t != EMPTY]
            if key not in row:
                row.append(key)
                if len(row) > ways:
                    del row[0]
        for index, row in rows.items():
            self.tags[index] = [EMPTY] * (ways - len(row)) + row

    def contains(self, key: int) -> bool:
        return bool((self.tags[key % self.num_sets] == key).any())

    def lines(self, index: int = 0) -> list:
        """The resident keys of set ``index``, LRU first."""
        return [t for t in self.tags[index].tolist() if t != EMPTY]

    @property
    def occupancy(self) -> int:
        return int((self.tags != EMPTY).sum())

    def clear(self) -> None:
        self.tags.fill(EMPTY)


def _previous(seq: np.ndarray):
    """``prev[k]``: the position of the previous access to ``seq[k]``'s
    line (-1 if none), and the positions that are not their line's last
    access."""
    m = seq.size
    bits = m.bit_length()
    positions = np.arange(m, dtype=np.int64)
    base = int(seq.min())
    if (int(seq.max()) - base).bit_length() + bits <= 62:
        by_line = np.sort(((seq - base) << bits) | positions)
        same = (by_line[1:] >> bits) == (by_line[:-1] >> bits)
        by_line &= (1 << bits) - 1
    else:   # keys too wide to pack beside a position
        by_line = np.argsort(seq, kind="stable")
        ordered = seq[by_line]
        same = ordered[1:] == ordered[:-1]
    earlier = by_line[:-1][same]
    prev = np.full(m, -1, dtype=np.int64)
    prev[by_line[1:][same]] = earlier
    return prev, earlier


def _distinct_ahead(prev: np.ndarray, width: int) -> np.ndarray:
    """``d[s]``: the number of distinct lines among positions
    ``s .. s + width - 1``."""
    j = np.arange(prev.size)
    # position j brings a new line into the windows starting in
    # (max(prev[j], j - width), j]: count them with a difference array
    first = np.maximum(prev, j - width) + 1
    return np.bincount(first, minlength=prev.size).cumsum() - j


def _few_distinct(prev: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                  ways: int) -> np.ndarray:
    """For each window ``(starts[k], ends[k])`` (both ends exclusive, at
    least ``ways`` positions long), True iff it holds fewer than ``ways``
    distinct lines.

    A window position opens a new distinct line iff its own previous
    access lies before the window start.  Windows whose first ``ways``
    positions all do are misses (a sliding maximum of ``prev``).  When
    many windows remain, the distinct counts of every ``2 * ways``-position
    range (:func:`_distinct_ahead`) settle most of them: a longer window
    whose first ``2 * ways`` positions hold ``ways`` lines misses, and a
    shorter one inside a range holding at most ``ways`` lines (its end's
    line among them) hits.  The rest are scanned on, in chunks of at most
    :data:`SCAN_WIDTH` positions, until ``ways`` distinct lines are seen
    or the window is covered.
    """
    narrow = prev.astype(np.int32)   # halves the scan's memory traffic
    span = 1 << (ways.bit_length() - 1)
    peak, width = narrow, 1
    while width < span:      # peak[k] = max(prev[k:k + width])
        peak = np.maximum(peak[:-width], peak[width:])
        width *= 2
    first = starts + 1
    result = np.zeros(starts.size, dtype=bool)
    unsure = np.flatnonzero(
        np.maximum(peak[first], peak[first + ways - span]) > starts)
    counts = np.zeros(starts.size, dtype=np.int64)
    offsets = np.zeros(starts.size, dtype=np.int64)
    # The range counts cost a few passes over the whole sequence; they
    # pay off once scanning the windows' first chunks would cost more.
    if unsure.size * 2 * ways > prev.size:
        wide = _distinct_ahead(prev, 2 * ways)[first[unsure]]
        long = ends[unsure] - first[unsure] >= 2 * ways
        result[unsure] = ~long & (wide <= ways)   # the settled hits
        counts[unsure[long]] = wide[long]
        offsets[unsure[long]] = 2 * ways
        unsure = unsure[(long & (wide < ways)) | (~long & (wide > ways))]
    for lo in range(0, unsure.size, SCAN_ROWS):
        pending = unsure[lo:lo + SCAN_ROWS]
        start = starts[pending, None].astype(np.int32)
        end = ends[pending, None].astype(np.int32)
        cursor = start + offsets[pending, None].astype(np.int32)
        seen = counts[pending]
        width = 2 * ways
        while pending.size:
            # positions past the window read the query itself, whose
            # previous access is the window start: never an opening
            cols = cursor + np.arange(1, width + 1, dtype=np.int32)
            np.minimum(cols, end, out=cols)
            seen += (np.take(narrow, cols) < start).sum(axis=1)
            many = seen >= ways
            done = many | (cols[:, -1] == end[:, 0])
            result[pending[done]] = ~many[done]
            undone = ~done
            pending = pending[undone]
            start, end, seen = start[undone], end[undone], seen[undone]
            cursor = cursor[undone] + width
            width = min(2 * width, SCAN_WIDTH)
    return result
