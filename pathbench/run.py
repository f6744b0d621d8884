"""Paper-path benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 pathbench/run.py --workload cold_mix --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` wraps every layer (see README.md), prints the per-layer
table, writes a chrome trace-event file under ``.pathbench_out/`` and
reports the per-layer metrics.  Outputs are checked against
``golden.json`` when it holds digests for the seed (and against
invariants always); ``--record`` stores this run's digests there instead.
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every output checked out, and 2 when the checkout holds no program.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".pathbench_out")
GOLDEN = os.path.join(HERE, "golden.json")

#: Layers of the attribution table, in print order: (label, clock keys).
LAYER_ROWS = (
    ("uarch (sim)", ("uarch.sim", "uarch.l1i", "uarch.l1d", "uarch.l2",
                     "uarch.l3", "uarch.itlb", "uarch.dtlb")),
    ("uarch (codegen)", ("uarch.codegen",)),
    ("uarch (finalize)", ("uarch.finalize",)),
    ("datagen", ("datagen.prepare",)),
    ("engine", ("engine",)),
    ("baselines", ("baselines",)),
    ("analysis", ("analysis",)),
    ("core.diskcache", ("core.diskcache.get", "core.diskcache.put")),
    ("cluster.timemodel", ("cluster.timemodel",)),
    ("core.harness", ("core.harness",)),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digests as golden")
    return parser.parse_args(argv)


def load_golden() -> dict:
    try:
        with open(GOLDEN) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def record_golden(golden: dict, seed: int, workload: str,
                  digests: dict) -> None:
    golden.setdefault(str(seed), {})[workload] = dict(sorted(digests.items()))
    ordered = {key: golden[key] for key in sorted(golden, key=int)}
    with open(GOLDEN, "w") as handle:
        json.dump(ordered, handle, indent=1, sort_keys=False)
        handle.write("\n")


def print_table(title: str, headers: list, rows: list) -> None:
    widths = [max(len(str(r[i])) for r in [headers] + rows)
              for i in range(len(headers))]
    print(title)
    for row in [headers] + rows:
        print("  " + "  ".join(str(c).rjust(w) if i else str(c).ljust(w)
                               for i, (c, w) in enumerate(zip(row, widths))))


def print_layers(clock, outcome, layer_metrics) -> None:
    wall = outcome.timed_s
    rows = []
    attributed = 0.0
    for label, keys in LAYER_ROWS:
        seconds = sum(clock.self_s.get(key, 0.0) for key in keys)
        calls = sum(clock.calls.get(key, 0) for key in keys)
        attributed += seconds
        rows.append([label, f"{seconds:.3f}", f"{100 * seconds / wall:.1f}%",
                     calls])
    rest = wall - attributed
    rows.append(["(unattributed)", f"{rest:.3f}", f"{100 * rest / wall:.1f}%",
                 ""])
    rows.append(["traced wall", f"{wall:.3f}", "100.0%", len(clock.spans)])
    print_table(f"per-layer self time, {len(outcome.passes)} pass(es)",
                ["layer", "self s", "share", "calls"], rows)
    print_table("per-layer metrics",
                ["metric", "value", "unit"],
                [[name, f"{value:.6g}", unit]
                 for name, (value, unit) in layer_metrics.items()])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    from hostspeed import HostSpeedProbe

    probe = HostSpeedProbe()
    with probe:
        sys.path.insert(1, SRC)
        import paperpath
        from layerclock import LayerClock, calibrate_overhead

        if args.workload not in paperpath.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(paperpath.WORKLOADS)}", file=sys.stderr)
            return 2
        import_s = probe.normalize(time.perf_counter() - _START)
    golden = load_golden()
    expected = {} if args.record else \
        golden.get(str(args.seed), {}).get(args.workload, {})
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    bench = paperpath.PaperPath(args.workload, args.seed, args.seconds,
                                scratch, expected, probe)
    clock = LayerClock() if args.trace else None
    setup_clock = LayerClock() if args.trace else None
    try:
        if setup_clock is not None:
            paperpath.install_setup_layers(setup_clock)
        try:
            bench.setup()
        finally:
            if setup_clock is not None:
                setup_clock.uninstall()
        if clock is not None:
            paperpath.install_layers(clock)
        try:
            outcome = bench.run(clock)
        finally:
            if clock is not None:
                clock.uninstall()
    finally:
        bench.close()
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(outcome.failures)
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    end_to_end = {
        "wall_s": (statistics.median(outcome.passes), "s"),
        "setup_s": (import_s + statistics.median(outcome.setup_s), "s"),
        "sim_minst_per_s": (outcome.instructions / sum(outcome.passes) / 1e6,
                            "Minst/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    rows = [[name, f"{value:.6g}", unit]
            for name, (value, unit) in end_to_end.items()]
    rows += [[f"  {output}", f"{statistics.median(seconds):.6g}", "s"]
             for output, seconds in outcome.output_s.items()]
    rows += [
        ["raw wall_s", f"{statistics.median(outcome.raw_passes):.6g}",
         "s as measured"],
        ["host slowdown", f"{statistics.median(outcome.slowdowns):.4g}",
         "x reference"],
        ["model_err", f"{outcome.model_err:.6g}", "ratio"],
        ["fail_ratio", f"{failed / outcome.attempted:.6g}",
         f"{failed}/{outcome.attempted}"],
    ]
    checked = ("golden digests + invariants" if expected
               else "invariants only (no golden digests for this seed)")
    print_table(f"{args.workload} seed={args.seed}"
                f"{' (traced)' if args.trace else ''}: "
                f"{len(outcome.passes)} pass(es); outputs checked against "
                f"{checked}", ["metric", "value", "unit"], rows)

    metrics = end_to_end
    if args.trace:
        metrics = paperpath.layer_metrics(clock, outcome,
                                          calibrate_overhead(), setup_clock)
        print_layers(clock, outcome, metrics)
        share = metrics["trace.unattributed_share"][0]
        if abs(share) > paperpath.ATTRIBUTION_TOLERANCE:
            print(f"ATTRIBUTION FLAG: {100 * share:.1f}% of traced wall time "
                  f"is outside every layer (limit "
                  f"{100 * paperpath.ATTRIBUTION_TOLERANCE:.0f}%)")
        path = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json")
        count = clock.write_chrome_trace(path, origin=_START)
        print(f"chrome trace: {count} spans -> {os.path.relpath(path, ROOT)}")
    if args.record:
        record_golden(golden, args.seed, args.workload, outcome.digests)
        print(f"recorded {len(outcome.digests)} golden digests for seed "
              f"{args.seed}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
