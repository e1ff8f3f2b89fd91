"""Smoke tests for the benchmark itself: every workload at toy size.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest -q perfbench/smoke.py

(The file name keeps these tests out of the default tier-1 collection.)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import hostinfo
from perfbench import run as bench
from perfbench.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


@pytest.fixture(scope="module", autouse=True)
def _stop_pool_helpers():
    yield
    hostinfo.stop_infrastructure()


def _bench(name: str, trace: int):
    lines = []
    result = bench.run_workload(
        WORKLOADS[name](1, toy=True), 0.2, trace, import_s=0.0, setups=1,
        out=lines.append,
    )
    return result, "\n".join(lines)


def _calls(name: str, seed: int, count: int = 2):
    """(input digests, output digests) of the first timed calls."""
    workload = WORKLOADS[name](seed, toy=True)
    session, _ = bench._set_up(workload)
    phase = bench.Phase(workload, session, hostinfo)
    try:
        phase.run(count=count)
    finally:
        phase.close()
    assert all(call.error is None for call in phase.calls)
    return (
        [workload.input_digest(call.inp) for call in phase.calls],
        [call.digest for call in phase.calls],
    )


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics(name):
    result, log = _bench(name, trace=0)
    assert result["correct"], log
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values()), log


@pytest.mark.parametrize("name", NAMES)
def test_traced_metrics(name):
    # correct also covers "traced outputs equal untraced outputs".
    result, log = _bench(name, trace=1)
    assert result["correct"], log
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert not [k for k, m in result["metrics"].items() if "missing" in m]
    assert result["metrics"]["unattributed_s"]["value"] >= 0


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_reproduces_outputs(name):
    assert _calls(name, 7) == _calls(name, 7)


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_changes_inputs(name):
    inputs_7, _ = _calls(name, 7)
    inputs_8, _ = _calls(name, 8)
    assert not set(inputs_7) & set(inputs_8)


def test_missing_entry_point_is_marked(monkeypatch):
    from repro.sampler.service import PoolManager

    for attr in ("run", "submit", "steal"):
        monkeypatch.delattr(PoolManager, attr)
    result, log = _bench("front", trace=1)
    assert result["correct"], log
    assert "not found" in result["metrics"]["pool.dispatch_s"]["missing"]
    assert "missing" not in result["metrics"]["kernel.s"]
