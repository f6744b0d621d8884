"""The three paper-path workloads, their output checks and their metrics.

Each workload is a closed loop driven by this one process: it runs one
characterization point (or renders one table or figure) at a time and
starts the next only when the previous one has returned.  A *pass* is
one round over the workload's points; the loop repeats passes until the
measuring window is used up, and always completes at least one.

* ``cold_mix`` -- Sort, Read, Connected Components and Rubis Server at
  scale 1 on the Xeon E5645, through one fresh
  ``Harness(cache=False, artifacts=False)`` per pass: the
  simulator-bound path.
* ``volume_32x`` -- Grep, WordCount, K-means and Naive Bayes at scale 32,
  same cold configuration: the datagen- and engine-bound path, with
  working sets 32x larger relative to the modelled caches.
* ``export_warm`` -- ``repro export``'s work (all seven tables, Figures 4,
  6-1 and 6-2 over ``EXPORT_NAMES``, written as CSV) from a disk cache
  that set-up filled by cold-characterizing ``EXPORT_NAMES`` at scale 1.

Simulated caches start empty at every point, except that
``PerfContext._warm_code`` primes L1I/ITLB with each code profile's hot
loop the first time that profile runs.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import math
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field, fields

from layerclock import LayerClock, _now

from repro.analysis import export as analysis_export
from repro.analysis import figures as analysis_figures
from repro.analysis import paper_reference
from repro.analysis.tables import ALL_TABLES
from repro.baselines import kernels as baseline_kernels
from repro.cluster.timemodel import TimeModel
from repro.core import registry
from repro.core.diskcache import DiskCache
from repro.core.harness import Harness
from repro.uarch import cpu, perfctx
from repro.uarch.cache import Cache
from repro.uarch.events import PerfEvents
from repro.uarch.hierarchy import MemorySystem
from repro.uarch.tlb import Tlb

POINTS = {
    "cold_mix": (("Sort", 1), ("Read", 1), ("Connected Components", 1),
                 ("Rubis Server", 1)),
    "volume_32x": (("Grep", 32), ("WordCount", 32), ("K-means", 32),
                   ("Naive Bayes", 32)),
}

#: The workloads ``export_warm`` characterizes in set-up and plots.
EXPORT_NAMES = ("Grep", "WordCount", "K-means", "Naive Bayes")

WORKLOADS = tuple(POINTS) + ("export_warm",)

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3

#: Simulated cache/TLB levels, by their config names lowered.
LEVELS = ("l1i", "l1d", "l2", "l3", "itlb", "dtlb")

#: MPKI rows compared with the paper for ``model_err``:
#: (figure-6 column, PerfEvents property, paper_reference table).
MPKI_ROWS = (
    ("L1I", "l1i_mpki", paper_reference.L1I_MPKI),
    ("L2", "l2_mpki", paper_reference.L2_MPKI),
    ("L3", "l3_mpki", paper_reference.L3_MPKI),
    ("DTLB", "dtlb_mpki", paper_reference.DTLB_MPKI),
    ("ITLB", "itlb_mpki", paper_reference.ITLB_MPKI),
)

#: Share of traced wall time the layers must account for.
ATTRIBUTION_TOLERANCE = 0.05


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: host seconds per pass, at the probe's reference host speed when
    #: untraced (see hostspeed.py) and as measured when traced
    passes: list = field(default_factory=list)
    raw_passes: list = field(default_factory=list)  # as measured
    slowdowns: list = field(default_factory=list)   # host slowdown per pass
    timed_s: float = 0.0        # whole timed part, all passes, as measured
    setup_s: list = field(default_factory=list)  # per repetition, normalized
    instructions: float = 0.0   # simulated, summed over the timed part
    model_err: float = 0.0
    digests: dict = field(default_factory=dict)  # output -> first digest
    output_s: dict = field(default_factory=dict)  # output -> [seconds]
    attempted: int = 0
    failures: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# digests and invariant checks
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    """One value as digest text; floats keep 12 significant digits."""
    if isinstance(value, float) or (isinstance(value, str)
                                    and _is_number(value)):
        return format(float(value), ".12g")
    return str(value)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def digest(rows) -> str:
    """Short sha256 over rows of cells."""
    text = "\n".join("\x1f".join(_cell(c) for c in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def point_digest(events: PerfEvents, metric_name: str,
                 metric_value: float) -> str:
    """Digest of a point's ProfileReport events plus its metric."""
    rows = [(f.name, getattr(events, f.name)) for f in fields(PerfEvents)]
    rows.append((metric_name, float(metric_value)))
    return digest(rows)


def point_problems(events: PerfEvents, result) -> list:
    """Invariants every profiled point must satisfy, plus the workload's
    own check of its output (``details["correct"]``) where it makes one."""
    problems = []
    for f in fields(PerfEvents):
        value = getattr(events, f.name)
        if not math.isfinite(value) or value < 0:
            problems.append(f"{f.name}={value!r}")
    for level in LEVELS:
        misses = getattr(events, f"{level}_misses")
        accesses = getattr(events, f"{level}_accesses")
        if misses > accesses * (1 + 1e-9):
            problems.append(f"{level} misses {misses} > accesses {accesses}")
    if events.instructions <= 0:
        problems.append("no instructions")
    if not math.isfinite(result.metric_value):
        problems.append(f"metric={result.metric_value!r}")
    if not result.details.get("correct", True):
        problems.append("the workload's own output check failed")
    return problems


def csv_problems(rows: list, expected_rows: int = None) -> list:
    """Invariants of one exported CSV (header plus data rows)."""
    problems = []
    if len(rows) < 2:
        problems.append("no data rows")
    elif expected_rows is not None and len(rows) != expected_rows + 1:
        problems.append(f"{len(rows) - 1} rows, expected {expected_rows}")
    for row in rows[1:]:
        for cell in row:
            if _is_number(cell) and not math.isfinite(float(cell)):
                problems.append(f"non-finite cell {cell!r} in row {row[0]!r}")
    return problems


def _read_csv(path: str) -> list:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class Checker:
    """Counts checked outputs and failures against golden digests."""

    def __init__(self, outcome: Outcome, golden: dict):
        self.outcome = outcome
        self.golden = golden

    def check(self, output: str, value_digest: str, problems: list) -> None:
        outcome = self.outcome
        outcome.attempted += 1
        first = outcome.digests.setdefault(output, value_digest)
        expected = self.golden.get(output)
        if problems:
            outcome.failures.append(f"{output}: {'; '.join(problems)}")
        elif expected is not None and value_digest != expected:
            outcome.failures.append(
                f"{output}: digest {value_digest} != golden {expected}")
        elif value_digest != first:
            outcome.failures.append(
                f"{output}: digest {value_digest} changed between passes")

    def failed(self, output: str) -> None:
        self.outcome.attempted += 1
        self.outcome.failures.append(f"{output}: raised\n"
                                     + traceback.format_exc())


# ---------------------------------------------------------------------------
# model error
# ---------------------------------------------------------------------------

def relative_error(pairs) -> float:
    """Mean |simulated - paper| / paper over (simulated, paper) pairs."""
    pairs = list(pairs)
    return sum(abs(sim - ref) / ref for sim, ref in pairs) / len(pairs)


def mix_model_err(events: list) -> float:
    """The mix's merged MPKI rows against the paper's Avg_BigData bars."""
    merged = PerfEvents()
    for item in events:
        merged = merged.merge(item)
    return relative_error((getattr(merged, prop), table["Avg_BigData"])
                          for _, prop, table in MPKI_ROWS)


def baseline_model_err(cache_fig, tlb_fig) -> float:
    """Avg_{HPCC,PARSEC,SPECFP,SPECINT} L1I/L2/L3/DTLB/ITLB MPKI of
    Figures 6-1 and 6-2 against the paper: 20 values."""
    pairs = []
    for suite in analysis_figures.TRADITIONAL_ORDER:
        label = f"Avg_{suite}"
        for column, _, table in MPKI_ROWS:
            header = f"{column} MPKI"
            figure = cache_fig if header in cache_fig.headers else tlb_fig
            value = figure.row_for(label)[figure.headers.index(header)]
            pairs.append((value, table[label]))
    return relative_error(pairs)


# ---------------------------------------------------------------------------
# the layer map
# ---------------------------------------------------------------------------

def _workload_classes():
    """Every class in a registered workload's MRO below ``Workload``."""
    from repro.core.workload import Workload

    seen = []
    for cls in registry.WORKLOAD_CLASSES.values():
        for klass in cls.__mro__:
            if klass is Workload or not issubclass(klass, Workload):
                continue
            if klass not in seen:
                seen.append(klass)
    return seen


def install_setup_layers(clock: LayerClock) -> None:
    """Wrap the disk cache's writes, which set-up makes (``export_warm``
    fills its cache there) and the timed part does not."""
    clock.wrap(DiskCache, "put", "core.diskcache.put")


def install_layers(clock: LayerClock) -> None:
    """Wrap each layer's public entry points (see README.md's map)."""
    counts = clock.counts

    def count_batch(layer, args, result):
        counts["uarch.calls"] += 1
        counts["uarch.accesses"] += len(args[1])

    def count_level(layer, args, result):
        counts[layer + ".accesses"] += len(result)
        counts[layer + ".hits"] += int(result.sum())

    def count_cache(layer, args, result):
        counts[layer + ".hits" if result is not None else layer + ".misses"] \
            += 1

    def level_key(store, *args):
        return "uarch." + store.config.name.lower()

    clock.wrap(MemorySystem, "data_access", "uarch.sim", after=count_batch)
    clock.wrap(MemorySystem, "inst_fetch", "uarch.sim", after=count_batch)
    for store in (Cache, Tlb):
        clock.wrap(store, "access_many", level_key, after=count_level)
        clock.wrap(store, "prime_many", "uarch.sim")
    clock.wrap(perfctx, "generate_fetch_addresses", "uarch.codegen")
    clock.wrap(cpu, "finalize", "uarch.finalize")
    for klass in _workload_classes():
        if "prepare" in klass.__dict__:
            clock.wrap(klass, "prepare", "datagen.prepare")
        if "run" in klass.__dict__:
            clock.wrap(klass, "run", "engine")
    clock.wrap(baseline_kernels, "run_kernel", "baselines")
    for name in ("figure4", "figure6_cache", "figure6_tlb"):
        clock.wrap(analysis_figures, name, "analysis")
    for name in ("export_table", "export_figure"):
        clock.wrap(analysis_export, name, "analysis")
    clock.wrap(DiskCache, "get", "core.diskcache.get", after=count_cache)
    clock.wrap(DiskCache, "put", "core.diskcache.put")
    clock.wrap(TimeModel, "job_time", "cluster.timemodel")
    clock.wrap(Harness, "run", "core.harness")


def layer_metrics(clock: LayerClock, outcome: Outcome,
                  overhead_per_span: float, setup_clock: LayerClock) -> dict:
    """Per-layer figures of a traced run, each per pass, except that
    ``core.diskcache.put_s`` is per set-up repetition (``setup_clock``):
    the timed part only reads the disk cache."""
    passes = len(outcome.passes)
    wall = outcome.timed_s
    counts = clock.counts
    levels_s = {level: clock.self_s.get("uarch." + level, 0.0)
                for level in LEVELS}
    sim_s = clock.self_s.get("uarch.sim", 0.0) + sum(levels_s.values())
    uarch_s = clock.total_self("uarch")
    accesses = counts["uarch.accesses"]
    attributed = sum(clock.self_s.values())
    metrics = {
        "uarch.sim_s": (sim_s / passes, "s"),
        "uarch.calls": (counts["uarch.calls"] / passes, "count"),
        "uarch.accesses": (accesses / passes, "count"),
        "uarch.accesses_per_call":
            (accesses / max(1, counts["uarch.calls"]), "count"),
        "uarch.ns_per_access": (1e9 * sim_s / max(1, accesses), "ns"),
    }
    for level in LEVELS:
        key = "uarch." + level
        level_accesses = counts[key + ".accesses"]
        metrics[key + "_s"] = (levels_s[level] / passes, "s")
        metrics[key + ".accesses"] = (level_accesses / passes, "count")
        metrics[key + ".hit_ratio"] = (
            counts[key + ".hits"] / level_accesses if level_accesses else 0.0,
            "ratio")
    metrics.update({
        "uarch.codegen_s": (clock.self_s.get("uarch.codegen", 0.0) / passes,
                            "s"),
        "uarch.finalize_s": (clock.self_s.get("uarch.finalize", 0.0) / passes,
                             "s"),
        "uarch.share": (uarch_s / wall, "ratio"),
        "uarch.model_err": (outcome.model_err, "ratio"),
        "datagen.prepare_s": (clock.self_s.get("datagen.prepare", 0.0)
                              / passes, "s"),
        "datagen.calls": (clock.calls.get("datagen.prepare", 0) / passes,
                          "count"),
        "engine.self_s": (clock.self_s.get("engine", 0.0) / passes, "s"),
        "baselines.self_s": (clock.self_s.get("baselines", 0.0) / passes,
                             "s"),
        "baselines.kernels": (clock.calls.get("baselines", 0) / passes,
                              "count"),
        "analysis.self_s": (clock.self_s.get("analysis", 0.0) / passes, "s"),
        "core.diskcache.get_s": (clock.self_s.get("core.diskcache.get", 0.0)
                                 / passes, "s"),
        "core.diskcache.put_s": (
            setup_clock.self_s.get("core.diskcache.put", 0.0) / SETUP_REPS,
            "s"),
        "core.diskcache.hits": (counts["core.diskcache.get.hits"] / passes,
                                "count"),
        "core.diskcache.misses": (counts["core.diskcache.get.misses"]
                                  / passes, "count"),
        "cluster.timemodel_s": (clock.self_s.get("cluster.timemodel", 0.0)
                                / passes, "s"),
        "core.harness.self_s": (clock.self_s.get("core.harness", 0.0)
                                / passes, "s"),
        "trace.wall_s": (wall / passes, "s"),
        "trace.spans": (len(clock.spans) / passes, "count"),
        "trace.overhead_s": (overhead_per_span * len(clock.spans) / passes,
                             "s"),
        "trace.unattributed_share": ((wall - attributed) / wall, "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

class PaperPath:
    """Set-up and timed loop of one workload, for one seed."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 scratch: str, golden: dict, probe):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.outcome = Outcome()
        self.checker = Checker(self.outcome, golden)
        self.cache = None
        #: the host-speed probe (hostspeed.py) that set-up and untraced
        #: passes run under
        self.probe = probe

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Run set-up ``SETUP_REPS`` times; keep the last one's state.

        Each repetition's seconds are taken at the probe's reference host
        speed, like the passes.  Garbage is collected before each
        repetition and after the last, so no repetition (and not the
        timed part) pays for collecting an earlier one's leftovers.
        """
        with self.probe:
            for _ in range(SETUP_REPS):
                gc.collect()
                first = len(self.probe.samples)
                start = _now()
                state = self._setup_once()
                self.outcome.setup_s.append(
                    self.probe.normalize(_now() - start, first))
                if self.cache is not None:
                    shutil.rmtree(self.cache.root, ignore_errors=True)
                self.cache = state
        gc.collect()

    def _setup_once(self):
        Harness(seed=self.seed, cache=False, artifacts=False)
        if self.workload != "export_warm":
            return None
        cache = DiskCache(root=tempfile.mkdtemp(prefix="cache-",
                                                dir=self.scratch))
        harness = Harness(seed=self.seed, cache=cache, artifacts=False)
        for name in EXPORT_NAMES:
            harness.characterize(name, scale=1)
        return cache

    # -- timed part ------------------------------------------------------------

    def run(self, clock: LayerClock = None) -> Outcome:
        """The closed loop: whole passes until ``seconds`` have elapsed.

        Untraced passes run under the host-speed probe; traced ones do
        not, so that every traced second belongs to the program.
        """
        one_pass = (self._export_pass if self.workload == "export_warm"
                    else self._points_pass)
        outcome = self.outcome
        if clock is not None:
            self.probe = None
        restore = self._count_kernel_instructions()
        try:
            start = _now()
            while True:
                pass_start = _now()
                if self.probe is None:
                    one_pass(clock)
                    raw = _now() - pass_start
                    outcome.passes.append(raw)
                    outcome.slowdowns.append(1.0)
                else:
                    with self.probe:
                        one_pass(clock)
                        raw = _now() - pass_start
                    outcome.passes.append(self.probe.normalize(raw))
                    outcome.slowdowns.append(self.probe.slowdown())
                outcome.raw_passes.append(raw)
                if _now() - start >= self.seconds:
                    break
            outcome.timed_s = _now() - start
        finally:
            restore()
        return outcome

    def _timed(self, output: str, call):
        """``call()``, its host seconds recorded against ``output``
        (normalized like the passes)."""
        first = len(self.probe.samples) if self.probe is not None else 0
        start = _now()
        result = call()
        seconds = _now() - start
        if self.probe is not None:
            seconds = self.probe.normalize(seconds, first)
        self.outcome.output_s.setdefault(output, []).append(seconds)
        return result

    def _next_trace(self, clock) -> None:
        if clock is not None:
            clock.trace_id += 1

    def _points_pass(self, clock) -> None:
        harness = Harness(seed=self.seed, cache=False, artifacts=False)
        events = []
        for name, scale in POINTS[self.workload]:
            output = f"{name}@{scale}"
            self._next_trace(clock)
            try:
                point = self._timed(output, lambda: harness.characterize(
                    name, scale=scale))
            except Exception:
                self.checker.failed(output)
                continue
            result = point.result
            self.outcome.instructions += point.events.instructions
            events.append(point.events)
            self.checker.check(
                output,
                point_digest(point.events, result.metric_name,
                             result.metric_value),
                point_problems(point.events, result))
        if events and len(self.outcome.passes) == 0:
            self.outcome.model_err = mix_model_err(events)

    def _export_pass(self, clock) -> None:
        harness = Harness(seed=self.seed, cache=self.cache, artifacts=False)
        directory = tempfile.mkdtemp(prefix="export-", dir=self.scratch)
        try:
            for name in ALL_TABLES:
                slug = name.lower().replace(" ", "")
                self._next_trace(clock)
                path = os.path.join(directory, f"{slug}.csv")
                try:
                    self._timed(slug, lambda: analysis_export.export_table(
                        name, path))
                except Exception:
                    self.checker.failed(slug)
                    continue
                rows = _read_csv(path)
                self.checker.check(slug, digest(rows), csv_problems(rows))
            rendered = {}
            for slug in ("figure4", "figure6_cache", "figure6_tlb"):
                self._next_trace(clock)

                def render():
                    figure = getattr(analysis_figures, slug)(
                        harness, names=list(EXPORT_NAMES))
                    return figure, analysis_export.export_figure(
                        figure, os.path.join(directory, f"{slug}.csv"))

                try:
                    figure, path = self._timed(slug, render)
                except Exception:
                    self.checker.failed(slug)
                    continue
                rendered[slug] = figure
                rows = _read_csv(path)
                expected = len(EXPORT_NAMES) + 1 + len(
                    analysis_figures.TRADITIONAL_ORDER)
                self.checker.check(slug, digest(rows),
                                   csv_problems(rows, expected))
            if ("figure6_cache" in rendered and "figure6_tlb" in rendered
                    and len(self.outcome.passes) == 0):
                self.outcome.model_err = baseline_model_err(
                    rendered["figure6_cache"], rendered["figure6_tlb"])
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _count_kernel_instructions(self):
        """Add every baseline-kernel report's instructions to the outcome
        (``export_warm``'s simulated work); returns the undo."""
        original = baseline_kernels.run_kernel
        outcome = self.outcome

        def run_kernel(*args, **kwargs):
            report, result = original(*args, **kwargs)
            outcome.instructions += report.events.instructions
            return report, result

        baseline_kernels.run_kernel = run_kernel

        def restore():
            baseline_kernels.run_kernel = original

        return restore

    def close(self) -> None:
        if self.cache is not None:
            shutil.rmtree(self.cache.root, ignore_errors=True)
            self.cache = None

