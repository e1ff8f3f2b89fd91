"""The BGLS Simulator: gate-by-gate sampling (paper Secs. 2-3).

The algorithm (Bravyi-Gosset-Liu, PRL 128, 220503 (2022)):

1. Start with bitstring ``b = 0...0`` and the initial state.
2. For each gate: apply it to the state; enumerate all *candidate*
   bitstrings that agree with ``b`` off the gate's support; resample the
   support bits of ``b`` from the candidates' Born probabilities.
3. After the last gate, ``b`` is a sample of the final distribution.

It substitutes bitstring-probability queries (cost ``f(n, d)``) for the
marginal computations of the conventional qubit-by-qubit sampler (cost
``~f(n, 2d)``).

Implemented features from the paper:

* **Automatic sample parallelization** (Sec. 3.2.3): all repetitions evolve
  together as a dict ``{bitstring: multiplicity}``, bounded by ``2^n``
  unique entries — runtime saturates at large repetition counts (Fig. 2).
* **Quantum trajectories** (Sec. 3.2.1): circuits with channels, mid-circuit
  measurements, or stochastic ``apply_op`` functions (sum-over-Cliffords)
  fall back to one independent walk per repetition.
* **Pluggable states** (Sec. 3.1): any object with ``copy``/``qubit_index``
  works; ``apply_op`` and ``compute_probability`` are user-supplied
  functions, exactly like the reference API.  Backends registered through
  :func:`repro.states.registry.register_backend` additionally get the
  row-block candidate oracle, exactly like the shipped states.

Execution is layered:

* the **backend registry** answers every capability question (batched
  oracles, stabilizer fast paths, renormalization, snapshots) once per
  state type;
* :meth:`Simulator.compile` returns a process-wide cached
  :class:`~repro.sampler.program.Program` — the circuit's structure
  compiled once; per-resolver :meth:`~repro.sampler.program.Program.specialize`
  rebuilds only resolver-dependent records, which is what makes
  :meth:`run_sweep` and :meth:`run_batch` cheap parameter-scan APIs;
* an optional **executor** (:mod:`repro.sampler.executors`) decides where
  the specialized plan's repetitions run — in-process (default), in
  deterministic seeded chunks, or across a **warm** process pool
  (:mod:`repro.sampler.service`) whose workers receive the compiled
  plan/Program and a packed initial-state snapshot once and stay alive
  across calls; sweeps and batches fan whole points across those
  workers, bit-for-bit identical to the executor-free sweep.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..born import many_candidate_function_for
from ..circuits.circuit import Circuit
from ..circuits.parameters import ParamResolver
from ..states.registry import capabilities_for
from .plan import ExecutionPlan, OpRecord
from .program import Program, compiled_program
from .requests import (
    normalize_repetitions,
    normalize_seed,
    normalize_trajectory_mode,
)
from .results import Result

BitTuple = Tuple[int, ...]


class Simulator:
    """Gate-by-gate sampler over a pluggable quantum state.

    Args:
        initial_state: The state object (e.g.
            :class:`~repro.states.StateVectorSimulationState`); must expose
            ``qubits``, ``qubit_index`` and ``copy``.
        apply_op: Function ``(operation, state) -> None`` updating the state
            in place; usually :func:`repro.protocols.act_on`.
        compute_probability: Function ``(state, bitstring) -> float``
            returning the Born probability of a full bitstring, e.g. the
            functions in :mod:`repro.born`.
        compute_candidate_probabilities: Optional single-row oracle
            ``(state, bitstring, support) -> ndarray`` of all ``2^k``
            candidate probabilities of one bitstring; the sampler calls it
            once per tracked bitstring.  When omitted, a registered
            ``compute_probability`` brings its backend's ``(B, 2^k)``
            row-block oracle, and any other one is called per candidate.
        seed: RNG seed/generator for all sampling decisions.  An integer
            seed also anchors the deterministic per-point streams of
            :meth:`run_sweep`/:meth:`run_batch` and chunked executors.
        skip_diagonal_updates: When True, candidate resampling is skipped
            for gates whose unitary is diagonal (their conditional output
            distribution is unchanged); an optimization ablation.
        executor: Optional :class:`~repro.sampler.executors.Executor`
            deciding where repetitions run (serial chunks, process pool).
            None (default) runs in-process off this simulator's RNG.
        trajectory_mode: How trajectory-mode plans (channels, mid-circuit
            measurement) execute their repetitions.  ``"serial"`` (the
            default) walks the plan once per repetition — the historical
            loop with its pinned RNG draw order.  ``"batched"`` runs
            repetition stacks through the vectorized engine
            (:mod:`repro.sampler.trajectory_batch`) when the state class
            has a batched adapter and the plan qualifies, falling back
            to the serial loop otherwise.
            Batched mode is a separately-pinned deterministic contract:
            trajectory ``r`` of point ``p`` draws from
            ``SeedSequence([base_seed, p, rep_base + r])``, so output is
            bit-for-bit reproducible and independent of tile size and
            worker count — but (by construction) not bit-for-bit equal to
            serial mode's interleaved draw order.
    """

    def __init__(
        self,
        initial_state,
        apply_op: Callable,
        compute_probability: Callable,
        *,
        compute_candidate_probabilities: Optional[Callable] = None,
        seed: Union[int, np.random.Generator, None] = None,
        skip_diagonal_updates: bool = False,
        executor=None,
        trajectory_mode: str = "serial",
    ):
        self.initial_state = initial_state
        self.apply_op = apply_op
        self.compute_probability = compute_probability
        self.user_candidate_function = compute_candidate_probabilities
        # The one candidate oracle ``(state, bits_list, support) -> (B,
        # 2^k)``, resolved once: a user row function wins over the
        # registered oracle, which wins over the per-candidate loop.
        oracle = None
        if compute_candidate_probabilities is None:
            oracle = many_candidate_function_for(compute_probability)
        self._oracle = oracle or self._candidate_rows
        # All argument validation lives in sampler.requests — one shared
        # normalizer for the whole run* surface, pinned by
        # tests/test_error_contracts.py.
        self.seed = normalize_seed(seed)
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self.skip_diagonal_updates = skip_diagonal_updates
        self.executor = executor
        self.trajectory_mode = normalize_trajectory_mode(trajectory_mode)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        repetitions: int = 1,
        param_resolver: Union[ParamResolver, dict, None] = None,
    ) -> Result:
        """Sample measurement records, Cirq-style.

        Requires at least one keyed measurement in the circuit.
        """
        records, _ = self._execute(circuit, repetitions, param_resolver)
        if not records:
            raise ValueError(
                "Circuit has no measurements; add measure(...) operations "
                "or use sample_bitstrings for raw final bitstrings."
            )
        return Result(records)

    def sample(self, circuit: Circuit, repetitions: int = 1, **kw) -> Result:
        """Alias of :meth:`run`."""
        return self.run(circuit, repetitions, **kw)

    def compile(self, circuit: Circuit) -> Program:
        """The cached :class:`Program` for ``circuit`` on this backend.

        Keyed by (circuit fingerprint, qubit register, backend type,
        ``apply_op``) in a process-wide LRU cache
        (:func:`repro.sampler.program.program_cache_info` exposes the
        counters).  Mutating the circuit or switching backend type misses
        and recompiles; repeated runs and sweeps of an identical circuit
        hit and share all resolver-independent op records.
        """
        return compiled_program(circuit, self.initial_state, self.apply_op)

    def run_sweep(
        self,
        circuit: Circuit,
        params: Sequence[Union[ParamResolver, dict, None]],
        repetitions: int = 1,
    ) -> List["Result"]:
        """Run the circuit once per parameter resolver (Cirq-style sweep).

        The QAOA example (paper Sec. 4.4) is exactly this pattern: one
        parameterized template, many (gamma, beta) assignments.  The
        template compiles **once**; each sweep point re-specializes only
        the resolver-dependent records (cost: a few small matrix builds,
        memoized per resolved parameter tuple) instead of recompiling the
        whole circuit.

        A sweep is a one-program batch (see :meth:`run_batch`): points are
        independent, so a pooled executor fans whole points across its
        (warm) workers.  Seeding is deterministic: point ``i`` draws from
        a fresh generator seeded with ``SeedSequence([user_seed, i])``, so
        two identically seeded simulators produce bit-for-bit identical
        sweeps, a point's stream does not depend on how many points
        precede it, and repeated ``run_sweep`` calls on one
        integer-seeded simulator return identical results.  With the
        default ``"fifo"`` pool scheduling the output equals the
        executor-free sweep bit-for-bit.
        """
        return list(self.run_sweep_iter(circuit, params, repetitions))

    def run_sweep_iter(
        self,
        circuit: Circuit,
        params: Sequence[Union[ParamResolver, dict, None]],
        repetitions: int = 1,
    ):
        """Streaming :meth:`run_sweep`: yield each point's :class:`Result`
        as soon as it completes.

        Same compiled Program and deterministic per-point seeding —
        ``list(run_sweep_iter(...))`` equals ``run_sweep(...)``
        bit-for-bit.  The difference is *when* results surface: with a
        pooled executor, point ``i`` is yielded the moment its last chunk
        lands (and all earlier points are out) while later points are
        still running in the workers; in-process, each point is yielded
        before the next one starts.  Argument validation and compilation
        happen eagerly at call time; only the execution is lazy.

        An abandoned iterator (``close()``, early ``break``) cancels
        what it can and releases every shared-memory result plane —
        streaming never leaks segments.  A pooled executor configured
        with ``task_timeout`` raises
        :class:`~repro.sampler.executors.TaskTimeoutError` from the
        iterator if no task completes within the bound (a wedged
        worker); the pool is killed and its planes released before the
        error surfaces, so the next call starts from a fresh pool.
        """
        parts = self._sweep_parts(circuit, params, repetitions)
        return (self._result(records, "run_sweep") for records, _ in parts)

    def sample_bitstrings_sweep(
        self,
        circuit: Circuit,
        params: Sequence[Union[ParamResolver, dict, None]],
        repetitions: int = 1,
    ) -> List[np.ndarray]:
        """Per-point final full-register bitstrings for a parameter sweep.

        The raw-bitstring sibling of :meth:`run_sweep` (same shared
        compiled Program, same deterministic per-point seeding); returns
        one ``(repetitions, n)`` array per resolver.
        """
        return [
            bits for _, bits in self._sweep_parts(circuit, params, repetitions)
        ]

    def _sweep_parts(self, circuit: Circuit, params, repetitions: int):
        """One lazy ``(records, bits)`` per resolver: a one-program batch.

        An empty sweep has nothing to run — and nothing to compile: the
        still-parameterized circuit cannot be resolved without a
        resolver, so it returns no points, matching ``run_batch([])``.
        """
        normalize_repetitions(repetitions)
        params = list(params)
        program = self.compile(circuit) if params else None
        return self._points([program] * len(params), params, repetitions)

    def run_batch(
        self,
        circuits: Sequence[Circuit],
        params: Optional[Sequence[Union[ParamResolver, dict, None]]] = None,
        repetitions: int = 1,
    ) -> List["Result"]:
        """Run many circuits, one :class:`Result` each.

        ``params`` optionally gives one resolver per circuit.  Circuits
        share the process-wide Program cache, so a batch containing
        repeated (or structurally identical) circuits compiles each
        distinct one once.  Per-circuit seeds derive from
        ``SeedSequence([user_seed, index])`` exactly like :meth:`run_sweep`.

        With a pooled executor the whole heterogeneous batch is **one
        schedulable unit** on the warm pool: each task carries its
        compiled Program, so N different circuits cost no worker
        initialization, and the executor's scheduling mode may reorder
        or split points
        (:func:`repro.sampler.schedule.schedule`).  With the default
        ``"fifo"`` mode the output is bit-for-bit identical to the
        executor-free ``run_batch``; ``"adaptive"`` or ``"stealing"``
        changes only *where* (and for split points, in how many
        deterministic chunks) each entry runs — the output stays a pure
        function of (batch, seed, mode), never of placement or timing.
        """
        return list(self.run_batch_iter(circuits, params, repetitions))

    def run_batch_iter(
        self,
        circuits: Sequence[Circuit],
        params: Optional[Sequence[Union[ParamResolver, dict, None]]] = None,
        repetitions: int = 1,
    ):
        """Streaming :meth:`run_batch`: yield each circuit's
        :class:`Result` as soon as it completes.

        Same compiled Programs and deterministic seeding as
        :meth:`run_batch` — ``list(run_batch_iter(...))`` equals
        ``run_batch(...)`` bit-for-bit; results stream strictly in batch
        order as points finish (see :meth:`run_sweep_iter` for the
        streaming and cleanup contract).  Validation and compilation
        are eager; execution is lazy.
        """
        if params is not None and len(params) != len(circuits):
            raise ValueError(
                f"Got {len(circuits)} circuits but {len(params)} resolvers"
            )
        normalize_repetitions(repetitions)
        resolvers = list(params) if params is not None else [None] * len(circuits)
        programs = [self.compile(circuit) for circuit in circuits]
        parts = self._points(programs, resolvers, repetitions)
        return (self._result(records, "run_batch") for records, _ in parts)

    def _points(self, programs, resolvers, repetitions: int):
        """Lazily yield one ``(records, bits)`` per (program, resolver)
        point: the one multi-point path behind every sweep and batch.

        The executor's :meth:`~repro.sampler.executors.Executor.execute_batch_iter`
        runs the points; without one they run as under a
        :class:`~repro.sampler.executors.SerialExecutor`: in-process, one
        seeded stream per point.
        """
        from .executors import SerialExecutor

        executor = self.executor if self.executor is not None else SerialExecutor()
        return executor.execute_batch_iter(self, programs, resolvers, repetitions)

    @staticmethod
    def _result(records: Dict[str, np.ndarray], api: str) -> "Result":
        if not records:
            raise ValueError(
                "Circuit has no measurements; add measure(...) "
                f"operations before {api}."
            )
        return Result(records)

    def sample_bitstrings(
        self,
        circuit: Circuit,
        repetitions: int = 1,
        param_resolver: Union[ParamResolver, dict, None] = None,
    ) -> np.ndarray:
        """Final full-register bitstrings of shape ``(repetitions, n)``.

        Measurement operations are ignored for output purposes (mid-circuit
        ones still collapse the state in trajectory mode).
        """
        _, bits = self._execute(circuit, repetitions, param_resolver)
        return bits

    # ------------------------------------------------------------------
    # execution core
    # ------------------------------------------------------------------
    def _execute(
        self,
        circuit: Circuit,
        repetitions: int,
        param_resolver,
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        normalize_repetitions(repetitions)
        plan = self.compile(circuit).specialize(param_resolver)
        if self.executor is not None:
            return self.executor.execute(self, plan, repetitions)
        return self._run_plan(plan, repetitions, None)

    def _run_plan(
        self,
        plan: ExecutionPlan,
        repetitions: int,
        rng: Optional[np.random.Generator],
        ctx: Optional[Tuple[int, int, int]] = None,
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Run a plan in-process, routing trajectory plans by mode.

        ``ctx = (base_seed, point_index, rep_base)`` is the batched
        engine's seeding anchor, threaded down by executors so pooled
        chunks of one point share ``base_seed`` and offset ``rep_base`` —
        which is exactly what makes batched output independent of chunk
        geometry and worker count.  When ``ctx`` is None (a plain
        ``run()``), a base seed is drawn from ``rng`` — only on the
        batched path, so serial mode's draw sequence is untouched.
        """
        if plan.needs_trajectories:
            if self.trajectory_mode != "serial":
                adapter_cls = self._batched_adapter(plan)
                if adapter_cls is not None:
                    if ctx is None:
                        source = rng if rng is not None else self._rng
                        ctx = (int(source.integers(2**62)), 0, 0)
                    from .trajectory_batch import run_batched_trajectories

                    return run_batched_trajectories(
                        self, plan, repetitions, ctx, adapter_cls
                    )
            return self._run_trajectories(plan, repetitions, rng=rng)
        return self._run_parallel(plan, repetitions, rng=rng)

    def _batched_adapter(self, plan: ExecutionPlan):
        """The batched-trajectory adapter class, or None to run serially.

        Eligibility is all-static: the default ``act_on`` dispatch (a
        custom ``apply_op`` could observe per-repetition state), no user
        candidate function, a state class with a shipped adapter
        (:func:`~repro.sampler.trajectory_batch.adapter_for`), and a plan
        the adapter declares supported.
        """
        from ..protocols.act_on import act_on
        from .trajectory_batch import adapter_for

        if self.apply_op is not act_on:
            return None
        if self.user_candidate_function is not None:
            return None
        adapter_cls = adapter_for(type(self.initial_state))
        if adapter_cls is None or not adapter_cls.supports_plan(plan):
            return None
        return adapter_cls

    def _candidate_rows(
        self, state, bits_list: Sequence[Sequence[int]], support: Sequence[int]
    ) -> List[np.ndarray]:
        """The candidate oracle without a registered one: each row from
        the user's ``compute_candidate_probabilities``, else from
        :meth:`_candidate_loop`."""
        row_fn = self.user_candidate_function or self._candidate_loop
        return [row_fn(state, bits, support) for bits in bits_list]

    def _candidate_loop(
        self, state, bits: Sequence[int], support: Sequence[int]
    ) -> np.ndarray:
        """Per-candidate fallback for user-supplied probability functions."""
        k = len(support)
        candidate = list(bits)
        out = np.empty(2**k)
        for idx in range(2**k):
            for pos, axis in enumerate(support):
                candidate[axis] = (idx >> (k - 1 - pos)) & 1
            out[idx] = self.compute_probability(state, candidate)
        return out

    @staticmethod
    def _normalize_prob_rows(probs) -> np.ndarray:
        """Clean float dust (tiny negatives, off-by-eps sums) and normalize
        each row of a ``(B, m)`` matrix."""
        probs = np.asarray(probs, dtype=float).clip(0.0, None)
        totals = probs.sum(axis=1, keepdims=True)
        # False for a zero, infinite or NaN total (NaN fails every test).
        if not 0 < totals.min() <= totals.max() < np.inf:
            raise ValueError(
                "All candidate probabilities vanished; state and bitstring "
                "are inconsistent (is compute_probability correct?)"
            )
        probs /= totals
        return probs

    # -- parallel (dict-of-bitstrings) mode --------------------------------
    def _run_parallel(
        self,
        plan: ExecutionPlan,
        repetitions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        rng = rng if rng is not None else self._rng
        state = self.initial_state.copy(seed=int(rng.integers(2**62)))
        n = plan.num_qubits
        counts: Dict[BitTuple, int] = {(0,) * n: repetitions}
        oracle = self._oracle
        apply_op = self.apply_op
        skip_diagonal = self.skip_diagonal_updates

        for rec in plan.records:
            if rec.is_measurement:
                continue
            plan.apply(rec, state, apply_op)
            if skip_diagonal and rec.is_diagonal():
                continue
            support = rec.support
            k = len(support)
            bit_keys = list(counts.keys())
            prob_rows = self._normalize_prob_rows(oracle(state, bit_keys, support))
            mults = np.fromiter(
                (counts[bits] for bits in bit_keys), dtype=np.int64
            )
            # One vectorized multinomial resamples every tracked bitstring.
            draws = rng.multinomial(mults, prob_rows)
            new_counts: Dict[BitTuple, int] = {}
            for row, idx in zip(*np.nonzero(draws)):
                candidate = list(bit_keys[row])
                for pos, axis in enumerate(support):
                    candidate[axis] = (int(idx) >> (k - 1 - pos)) & 1
                key = tuple(candidate)
                new_counts[key] = new_counts.get(key, 0) + int(draws[row, idx])
            counts = new_counts

        all_bits = np.empty((repetitions, n), dtype=np.int8)
        row = 0
        for bits, mult in counts.items():
            all_bits[row : row + mult] = bits
            row += mult
        rng.shuffle(all_bits, axis=0)

        records = {}
        for key, axes in plan.key_axes.items():
            records[key] = all_bits[:, list(axes)].copy()
        return records, all_bits

    # -- trajectory mode -----------------------------------------------------
    def _run_trajectories(
        self,
        plan: ExecutionPlan,
        repetitions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        rng = rng if rng is not None else self._rng
        n = plan.num_qubits
        per_key: Dict[str, List[List[int]]] = {}
        all_bits = np.empty((repetitions, n), dtype=np.int8)
        oracle = self._oracle
        apply_op = self.apply_op
        skip_diagonal = self.skip_diagonal_updates

        for rep in range(repetitions):
            state = self.initial_state.copy(seed=int(rng.integers(2**62)))
            bits = [0] * n
            for rec in plan.records:
                support = rec.support
                if rec.is_measurement:
                    outcome = [bits[axis] for axis in support]
                    per_key.setdefault(rec.measurement_key, []).append(outcome)
                    state.project(support, outcome)
                    continue
                if rec.needs_branching:
                    state, probs = self._apply_channel_branch(
                        rec, state, bits, support, rng
                    )
                else:
                    plan.apply(rec, state, apply_op)
                    if skip_diagonal and rec.is_diagonal():
                        continue
                    probs = oracle(state, [bits], support)
                self._assign_support(bits, support, probs, rng)
            all_bits[rep] = bits

        records = {
            key: np.asarray(rows, dtype=np.int8) for key, rows in per_key.items()
        }
        return records, all_bits

    def _assign_support(
        self,
        bits: List[int],
        support: Sequence[int],
        probs,
        rng: np.random.Generator,
    ) -> None:
        """Resample the support bits of ``bits`` from the one-row
        candidate block ``probs``."""
        draws = rng.multinomial(1, self._normalize_prob_rows(probs)[0])
        idx = int(np.flatnonzero(draws)[0])
        for pos, axis in enumerate(support):
            bits[axis] = (idx >> (len(support) - 1 - pos)) & 1

    def _apply_channel_branch(
        self,
        rec: OpRecord,
        state,
        bits: Sequence[int],
        support: Sequence[int],
        rng: np.random.Generator,
    ):
        """Conditional Kraus-branch selection (quantum trajectories).

        Branch k is chosen with weight ``||P_rest K_k psi||^2`` (the summed
        candidate probabilities), which makes the final bitstring exactly a
        sample of the channel output's diagonal: the off-support marginal
        is preserved by trace preservation, and within the branch the
        candidates are resampled from the correct conditional.

        Every pure-state Kraus branch is chosen here (the batched
        ``apply_kraus`` draws the same weights): the plan marks a Kraus
        record ``needs_branching`` unless the state applies channels
        exactly or ``apply_op`` owns the gate's channel class
        (``_bgls_owns_channel_``).  A global (state-side) choice could land
        on a branch under which the tracked bitstring has probability zero
        — exact zeros are common in stabilizer-like states — breaking the
        trajectory.
        """
        kraus = rec.kraus
        trials = []
        probses = []
        weights = []
        for k_op in kraus:
            trial = state.copy(seed=int(rng.integers(2**62)))
            trial.apply_unitary(np.asarray(k_op), support)  # linear map
            probs = np.asarray(self._oracle(trial, [bits], support), dtype=float)
            trials.append(trial)
            probses.append(probs)
            weights.append(float(probs[0].sum()))
        try:
            branch_probs = self._normalize_prob_rows([weights])[0]
        except ValueError as exc:
            raise ValueError(
                "Channel branches all annihilated the tracked bitstring; "
                "the state and bitstring are inconsistent."
            ) from exc
        choice = int(rng.choice(len(kraus), p=branch_probs))
        chosen = trials[choice]
        # Registry capability, not a hasattr probe: backends declare
        # renormalization support once.
        if capabilities_for(type(chosen)).renormalize:
            chosen.renormalize()
        return chosen, probses[choice]
