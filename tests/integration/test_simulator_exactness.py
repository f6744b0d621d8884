"""Queued simulator batches are bit-identical to simulating every call.

``MemorySystem`` queues ``data_access``/``inst_fetch`` batches and syncs
before any read of simulated state; a traced run reads ``ctx.events`` at
every span entry and exit, so a missing sync shows up as a span whose
``mem_bytes`` (or cache counts at ``finalize``) differ while the run's
totals still agree.  These tests run real workloads once on the
production hierarchy and once on the ``OrderedDict`` reference of
``tests/oracles/lru.py``, which simulates each call the moment it is
made, and require every span's event delta and the full
``ProfileReport`` to be equal float for float.
"""

import pytest

from oracles.lru import RefMemorySystem
from repro.core.harness import Harness
from repro.uarch import (
    FRAMEWORK_STACK, HPC_KERNEL, SERVER_STACK, PerfContext, perfctx)
from repro.uarch.hierarchy import XEON_E5310, XEON_E5645

POINTS = [(name, machine) for machine in (XEON_E5645, XEON_E5310)
          for name in ("Sort", "Rubis Server", "Grep")]


def _characterize(name, machine, trace):
    harness = Harness(machine=machine, cache=False, artifacts=False)
    return harness.characterize(name, scale=1, trace=trace)


def _spans(point):
    return [(span.name, repr(span.events)) for span in point.trace.walk()]


@pytest.mark.parametrize("name,machine", POINTS,
                         ids=[f"{n}-{m.name[-5:]}" for n, m in POINTS])
def test_reports_and_span_events_match_the_oracle(name, machine,
                                                  monkeypatch):
    traced = _characterize(name, machine, trace=True)
    untraced = _characterize(name, machine, trace=False)
    monkeypatch.setattr(perfctx, "MemorySystem", RefMemorySystem)
    reference = _characterize(name, machine, trace=True)

    assert repr(traced.report) == repr(reference.report)
    assert repr(untraced.report) == repr(reference.report)
    assert traced.report == reference.report
    spans = _spans(traced)
    assert len(spans) > 3
    assert spans == _spans(reference)


def _switching_profiles():
    """Each profile's fetch batch is still queued when the next profile's
    first fetch primes L1I and the ITLB with its hot code."""
    ctx = PerfContext(XEON_E5645, seed=3)
    for profile in (FRAMEWORK_STACK, SERVER_STACK, HPC_KERNEL,
                    FRAMEWORK_STACK):
        with ctx.code(profile):
            ctx.int_ops(5e7)
            ctx.rand_read("table", 1e5, elem=16)
    return ctx.finalize()


def test_code_warm_up_primes_after_queued_fetches(monkeypatch):
    report = _switching_profiles()
    monkeypatch.setattr(perfctx, "MemorySystem", RefMemorySystem)
    assert repr(report) == repr(_switching_profiles())
