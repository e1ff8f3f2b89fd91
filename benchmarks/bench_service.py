"""Sampling-service benchmarks: fair share, one warm pool, isolation cost.

One series, four claims (``BENCH_service_fair_share.json``):

* **Shared warm pool** — >= 4 concurrent tenants run their jobs through
  ONE warm process pool; the pool manager's reuse counter (not fresh
  inits) absorbs the whole job stream.
* **No re-initialization** — 16 jobs interleaving 2 distinct circuits
  across 4 tenant queues cost 0 pool re-initializations: each job's
  circuit travels with its tasks, so the pool is keyed by the service's
  state and config alone.
* **Fair-share latency** — a light tenant's probe-job p99 latency under
  3 heavy backlogged tenants stays within 3x its idle p99 (the gated
  ``fairness_headroom`` column is ``3 * idle_p99 / loaded_p99`` and
  must stay >= 1).
* **Determinism under multiplexing** — streamed job results are
  bit-for-bit equal to a direct ``run_sweep`` of the same
  ``(circuit, params, repetitions, seed)`` on a fresh serial simulator
  (the ``equal`` column pins this exactly).
"""

import time

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import SamplingService
from repro.sampler import jobs as jobs_mod
from repro.states import StateVectorSimulationState

from conftest import assert_timing_win, print_series

WIDTH = 6
QUBITS = cirq.LineQubit.range(WIDTH)
THETA = cirq.Symbol("theta")
POINTS = [{"theta": 0.1 + 0.11 * i} for i in range(3)]
# The light tenant's probe is a wide sweep (12 points fanned across the
# pool) so its own pool-parallel run time dominates its latency; the
# heavy tenants flood with narrow 3-point jobs, so the probe's queueing
# delay — bounded by start-time fair queueing's one-job re-entry slack
# at roughly the job in service — is a fraction of the probe itself.
# p99 is taken per round of probes and the median across rounds is
# reported, so a one-off OS hiccup cannot masquerade as a fairness
# regression.
PROBE_POINTS = [{"theta": 0.1 + 0.07 * i} for i in range(12)]
PROBE_REPS = 32
HEAVY_REPS = 64
PROBES = 8
ROUNDS = 3
BACKLOG_PER_HEAVY = 64


def circuit_a():
    circuit = cirq.Circuit(cirq.H(q) for q in QUBITS)
    for a, b in zip(QUBITS[:-1], QUBITS[1:]):
        circuit.append(cirq.CNOT(a, b))
    for q in QUBITS:
        circuit.append(cirq.Rx(THETA).on(q))
    circuit.append(cirq.measure(*QUBITS, key="m"))
    return circuit


def circuit_b():
    circuit = cirq.Circuit(cirq.H(q) for q in QUBITS)
    for a, b in zip(QUBITS[1:], QUBITS[:-1]):
        circuit.append(cirq.CNOT(a, b))
    for q in QUBITS:
        circuit.append(cirq.Rz(THETA).on(q))
    circuit.append(cirq.measure(*QUBITS, key="m"))
    return circuit


def direct_sweep(circuit, params, repetitions, seed):
    sim = bgls.Simulator(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=seed,
    )
    return sim.run_sweep(circuit, params, repetitions)


def probe_p99(service, seed_base):
    """Median over rounds of the p99 of sequential probe round trips."""
    p99s = []
    for round_ in range(ROUNDS):
        latencies = []
        for k in range(PROBES):
            start = time.perf_counter()
            handle = service.submit(
                circuit_a(),
                PROBE_POINTS,
                tenant="light",
                repetitions=PROBE_REPS,
                seed=seed_base + PROBES * round_ + k,
            )
            handle.result(timeout=300)
            latencies.append(time.perf_counter() - start)
        p99s.append(float(np.percentile(latencies, 99)))
    return float(np.median(p99s))


def test_service_fair_share():
    """4 tenants, 1 warm pool: no re-init, fair-share latency, determinism."""
    ca, cb = circuit_a(), circuit_b()
    heavies = ("heavy0", "heavy1", "heavy2")
    service = SamplingService(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        num_workers=2,
        start_method="fork",
    )
    with service:
        manager = service.executor.pool_manager
        service.register_tenant("light", quota=6.0)
        for name in heavies:
            service.register_tenant(name, quota=1.0)

        # -- idle baseline: the light tenant alone on a warmed pool ----
        warmup = service.submit(
            ca, PROBE_POINTS, tenant="light", repetitions=PROBE_REPS, seed=7
        )
        assert warmup.result(timeout=300) == direct_sweep(
            ca, PROBE_POINTS, PROBE_REPS, 7
        )
        idle_p99 = probe_p99(service, seed_base=100)

        # -- one pool: 16 jobs over 2 circuits from 4 tenant queues ----
        # A long stall job (from a throwaway filler tenant, so the cost
        # is not billed to the light tenant's fair-share ledger) holds
        # the dispatcher while every backlog is enqueued, so the jobs
        # interleave both circuits in fair-share order.
        inits_before = manager.stats["inits"]
        stall = service.submit(
            ca, POINTS, tenant="filler", repetitions=8 * PROBE_REPS, seed=8
        )
        grouped = [
            service.submit(
                circuit,
                POINTS,
                tenant=tenant,
                repetitions=PROBE_REPS,
                seed=200 + 10 * t + 2 * r + i,
            )
            for t, tenant in enumerate(("light",) + heavies)
            for r in range(2)
            for i, circuit in enumerate((ca, cb))
        ]
        stall.result(timeout=300)
        for handle in grouped:
            handle.result(timeout=300)
        reinits = manager.stats["inits"] - inits_before
        distinct_keys = 2
        # Interleaved circuits share the warm pool: no re-init at all.
        assert reinits == 0, manager.stats

        # -- fair share: light probes against 3 heavy backlogs ---------
        # One more probe-shaped job first, so the loaded measurement
        # starts from the same state as the idle one.
        service.submit(
            ca, PROBE_POINTS, tenant="light", repetitions=PROBE_REPS, seed=9
        ).result(timeout=300)
        backlog = [
            service.submit(
                ca, POINTS, tenant=tenant, repetitions=HEAVY_REPS, seed=300 + k
            )
            for k in range(BACKLOG_PER_HEAVY)
            for tenant in heavies
        ]
        loaded_p99 = probe_p99(service, seed_base=400)
        # The heavy backlogs must have stayed live through every loaded
        # probe round — otherwise the measurement quietly degraded into
        # another idle baseline.
        assert any(
            handle.status() in (jobs_mod.QUEUED, jobs_mod.RUNNING)
            for handle in backlog
        ), "heavy backlog drained before the loaded probes finished"
        for handle in backlog:
            handle.result(timeout=300)

        # -- determinism: multiplexed stream == direct serial sweep ----
        job = service.submit(
            cb, POINTS, tenant="heavy0", repetitions=HEAVY_REPS, seed=5
        )
        equal = int(
            list(job.stream()) == direct_sweep(cb, POINTS, HEAVY_REPS, 5)
        )
        assert equal == 1

        stats = service.stats()
        tenants = len(stats)
        assert tenants >= 4
        assert manager.stats["reuses"] > 0
        assert stats["light"]["jobs_completed"] == 2 * ROUNDS * PROBES + 6
        assert sum(stats[h]["jobs_failed"] for h in heavies) == 0

    latency_ratio = loaded_p99 / idle_p99
    fairness_headroom = 3.0 / latency_ratio
    print_series(
        "service fair share",
        [
            "tenants",
            "distinct_keys",
            "reinits",
            "idle_p99_s",
            "loaded_p99_s",
            "latency_ratio",
            "fairness_headroom",
            "equal",
        ],
        [
            (
                tenants,
                distinct_keys,
                reinits,
                idle_p99,
                loaded_p99,
                latency_ratio,
                fairness_headroom,
                equal,
            )
        ],
    )
    # The acceptance bar: a light tenant's loaded p99 stays within 3x of
    # its idle p99 while three heavy tenants flood the same pool.
    assert_timing_win(
        loaded_p99,
        3.0 * idle_p99,
        "light-tenant p99 under load <= 3x idle p99",
    )
