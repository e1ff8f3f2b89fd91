"""Property tests pinning the batched trajectory engine's kernels.

Five kernels carry the batched engine's correctness and get adversarial
randomized coverage here:

* :func:`~repro.sampler.trajectory_batch.categorical_rows` — the
  vectorized resampler — against the scalar ``searchsorted(cumsum)``
  reference, including unnormalized rows and float-dust negatives;
* :meth:`~repro.sampler.trajectory_batch.BatchedStateVector.apply_kraus`
  — two-pass masked branching — against a per-trajectory scalar replay
  of the identical weight/choice/collapse recipe;
* the packed column helpers of :mod:`repro.states.bitpack` on 2-D and
  stacked 3-D word matrices at widths 63/64/65, the word-boundary cases;
* the stacked stabilizer engines
  (:class:`~repro.states.tableau.StackedCliffordTableaus`,
  :class:`~repro.states.chform.StackedChForms`) against ``B`` scalar
  engines, gate by gate from per-trajectory random prefixes;
* the owner map: every adapter holding ``U`` distinct rows shared by
  ``B`` trajectories against the ``B``-row tile of explicit copies, bit
  for bit, through Kraus branching, candidate queries and projection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampler.trajectory_batch import (
    BatchedChForms,
    BatchedStateVector,
    BatchedTableaus,
    categorical_rows,
)
from repro.states import bitpack as bp
from repro.states.state_vector import apply_matrix


# ----------------------------------------------------------------------
# categorical_rows vs the scalar searchsorted reference
# ----------------------------------------------------------------------

@st.composite
def prob_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    probs = rng.random((rows, cols)) ** 3  # skewed, occasionally tiny
    # Random rows get float dust below zero (clipped by the kernel) and
    # random unnormalized scales.
    probs[rng.random((rows, cols)) < 0.1] = -1e-18
    probs *= rng.uniform(0.1, 10.0, size=(rows, 1))
    # Guarantee every row keeps some mass.
    probs[:, 0] += 0.01
    u = rng.random(rows)
    return probs, u


@given(prob_matrices())
@settings(max_examples=200, deadline=None)
def test_categorical_rows_matches_scalar_searchsorted(case):
    probs, u = case
    choice = categorical_rows(probs, u)
    clipped = np.clip(probs, 0.0, None)
    for b in range(probs.shape[0]):
        cum = np.cumsum(clipped[b])
        cum /= cum[-1]
        expected = min(
            int(np.searchsorted(cum, u[b], side="left")), probs.shape[1] - 1
        )
        assert choice[b] == expected


def test_categorical_rows_raises_on_vanished_row():
    # A zero, NaN or infinite row total: each row vanished.
    for vanished in ([0.0, 0.0], [np.nan, 0.5], [np.inf, 0.5]):
        probs = np.array([[0.5, 0.5], vanished])
        try:
            categorical_rows(probs, np.array([0.3, 0.7]))
        except ValueError as exc:
            assert "vanished" in str(exc)
        else:  # pragma: no cover - the assert above must fire
            raise AssertionError("vanished row did not raise")


# ----------------------------------------------------------------------
# masked batched Kraus vs a scalar per-trajectory replay
# ----------------------------------------------------------------------

def _random_state_stack(rng, batch, n):
    vec = rng.normal(size=(batch, 2**n)) + 1j * rng.normal(size=(batch, 2**n))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    return vec.reshape((batch,) + (2,) * n)


def _random_kraus(rng, nk, k):
    dim = 2**k
    ops = rng.normal(size=(nk, dim, dim)) + 1j * rng.normal(
        size=(nk, dim, dim)
    )
    # Normalize so the channel is roughly trace-preserving in scale;
    # exact completeness is not required by the branching math.
    total = sum(op.conj().T @ op for op in ops)
    scale = np.sqrt(np.trace(total).real / dim)
    return [op / scale for op in ops]


@st.composite
def kraus_cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=min(2, n)))
    nk = draw(st.integers(min_value=1, max_value=4))
    batch = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, k, nk, batch, seed


@given(kraus_cases())
@settings(max_examples=100, deadline=None)
def test_masked_batched_kraus_matches_scalar_replay(case):
    n, k, nk, batch, seed = case
    rng = np.random.default_rng(seed)
    support = tuple(sorted(rng.choice(n, size=k, replace=False)))
    kraus = _random_kraus(rng, nk, k)
    tensor = _random_state_stack(rng, batch, n)
    bits = rng.integers(0, 2, size=(batch, n)).astype(np.int8)
    u_branch = rng.random(batch)

    adapter = BatchedStateVector(tensor.copy(), n)
    probs = adapter.apply_kraus(kraus, support, bits, u_branch)

    from repro.states.base import candidate_index_matrix

    idx = candidate_index_matrix(bits, support, n)
    for b in range(batch):
        # Pass 1: per-branch candidate masses.
        branch_probs = []
        for op in kraus:
            flat = apply_matrix(tensor[b], op, support).reshape(-1)
            branch_probs.append(np.abs(flat[idx[b]]) ** 2)
        weights = np.array([p.sum() for p in branch_probs])
        cum = np.cumsum(np.clip(weights, 0, None))
        cum /= cum[-1]
        choice = min(
            int(np.searchsorted(cum, u_branch[b], side="left")), nk - 1
        )
        # Pass 2: the chosen branch, renormalized.
        flat = apply_matrix(tensor[b], kraus[choice], support).reshape(-1)
        flat = flat / np.linalg.norm(flat)
        np.testing.assert_allclose(
            adapter.tensor[b].reshape(-1), flat, atol=1e-12
        )
        np.testing.assert_allclose(probs[b], branch_probs[choice], atol=1e-12)


# ----------------------------------------------------------------------
# packed column helpers on 2-D and stacked 3-D matrices at word-boundary
# widths
# ----------------------------------------------------------------------

@st.composite
def stacked_bit_cases(draw):
    width = draw(st.sampled_from([63, 64, 65]))
    batch = draw(st.sampled_from([None, 1, 2, 5]))
    rows = draw(st.integers(min_value=1, max_value=7))
    col = draw(st.integers(min_value=0, max_value=width - 1))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return width, batch, rows, col, seed


@given(stacked_bit_cases())
@settings(max_examples=200, deadline=None)
def test_stacked_column_helpers_match_unpacked(case):
    width, batch, rows, col, seed = case
    lead = (rows,) if batch is None else (batch, rows)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=lead + (width,)).astype(np.uint8)
    packed = bp.pack_rows(bits, width)

    np.testing.assert_array_equal(bp.get_col(packed, col), bits[..., col])

    flips = rng.integers(0, 2, size=lead).astype(np.uint64)
    expected = bits.copy()
    expected[..., col] ^= flips.astype(np.uint8)
    xored = packed.copy()
    bp.xor_col(xored, col, flips)
    np.testing.assert_array_equal(bp.unpack_rows(xored, width), expected)


# ----------------------------------------------------------------------
# stacked stabilizer engines vs B scalar engines, gate by gate
# ----------------------------------------------------------------------

_ONE_QUBIT_PRIMS = ("H", "S", "SDG", "X", "Y", "Z")
_PHASES = (1.0 + 0j, 1j, -1.0 + 0j, -1j, complex(np.exp(0.25j * np.pi)))


def _random_phase(rng):
    return _PHASES[int(rng.integers(len(_PHASES)))]


def _random_prims(rng, n, length):
    """``length`` random engine primitives ``(name, axes)`` on ``n`` qubits."""
    prims = []
    for _ in range(length):
        if n >= 2 and rng.random() < 0.35:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            prims.append((("CX", "CZ")[int(rng.integers(2))], (a, b)))
        else:
            name = _ONE_QUBIT_PRIMS[int(rng.integers(len(_ONE_QUBIT_PRIMS)))]
            prims.append((name, (int(rng.integers(n)),)))
    return prims


def _random_steps(rng, n, length):
    """Shared steps: gate-like ``(phase, prims)`` sequences on one or two
    axes, or fused moments of disjoint single-qubit gates."""
    steps = []
    for _ in range(length):
        if rng.random() < 0.3:
            width = int(rng.integers(1, n + 1))
            axes = [int(a) for a in rng.choice(n, size=width, replace=False)]
            seqs = [
                (
                    _random_phase(rng),
                    [
                        _ONE_QUBIT_PRIMS[int(rng.integers(len(_ONE_QUBIT_PRIMS)))]
                        for _ in range(int(rng.integers(1, 4)))
                    ],
                )
                for _ in axes
            ]
            steps.append(("moment", seqs, axes))
            continue
        k = 2 if n >= 2 and rng.random() < 0.5 else 1
        axes = [int(a) for a in rng.choice(n, size=k, replace=False)]
        local = _random_prims(rng, k, int(rng.integers(1, 4)))
        steps.append(("sequence", (_random_phase(rng), local), axes))
    return steps


def _has_h(step):
    return any("H" in prims for _, prims in step[1])


def _apply_prim(engine, name, axes):
    getattr(engine, "apply_" + name.lower())(*axes)


def _apply_step(target, step):
    kind, seq, axes = step
    if kind == "moment":
        target.apply_single_qubit_moment(seq, axes)
    else:
        target.apply_stabilizer_sequence(seq, axes)


@st.composite
def stack_parity_cases(draw):
    n = draw(st.sampled_from([1, 2, 3, 5, 64, 65]))
    batch = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, batch, seed


def _scalar_states(state_cls, n, batch, rng):
    """A base state and ``batch`` per-trajectory random Clifford prefixes."""
    qubits = list(range(n))
    initial = int(rng.integers(2 ** min(n, 62)))
    base = state_cls(qubits, initial_state=initial)
    prefixes = [
        _random_prims(rng, n, int(rng.integers(0, 9))) for _ in range(batch)
    ]
    return base, prefixes


@given(stack_parity_cases())
@settings(max_examples=40, deadline=None)
def test_stacked_tableaus_match_scalar_engines_gate_by_gate(case):
    from repro.states import CliffordTableauSimulationState

    n, batch, seed = case
    rng = np.random.default_rng(seed)
    base, prefixes = _scalar_states(CliffordTableauSimulationState, n, batch, rng)
    stack = base.tableau.stack(batch)
    scalars = [base.copy() for _ in range(batch)]
    for b, prefix in enumerate(prefixes):
        view = stack.view(b)
        for name, axes in prefix:
            _apply_prim(view, name, axes)
            _apply_prim(scalars[b].tableau, name, axes)

    def check():
        for b, state in enumerate(scalars):
            np.testing.assert_array_equal(stack.xw[b], state.tableau.xw)
            np.testing.assert_array_equal(stack.zw[b], state.tableau.zw)
            np.testing.assert_array_equal(stack.r[b], state.tableau.r)

    check()
    for step in _random_steps(rng, n, 12):
        _apply_step(stack, step)
        for state in scalars:
            _apply_step(state, step)
        check()


@given(stack_parity_cases())
@settings(max_examples=40, deadline=None)
def test_stacked_ch_forms_match_scalar_engines_gate_by_gate(case):
    from repro.states import StabilizerChFormSimulationState

    n, batch, seed = case
    rng = np.random.default_rng(seed)
    base, prefixes = _scalar_states(
        StabilizerChFormSimulationState, n, batch, rng
    )
    stack = base.ch_form.stack(batch)
    scalars = [base.copy() for _ in range(batch)]
    for b, prefix in enumerate(prefixes):
        view = stack.view(b)
        for name, axes in prefix:
            _apply_prim(view, name, axes)
            _apply_prim(scalars[b].ch_form, name, axes)
        stack.store(b, view)

    def check(exact=True):
        bits = rng.integers(0, 2, size=(batch, n)).astype(np.uint8)
        k = int(rng.integers(1, min(n, 3) + 1))
        support = [int(a) for a in rng.choice(n, size=k, replace=False)]
        probs = stack.candidate_probabilities_many(bits, support)
        for b, state in enumerate(scalars):
            form = state.ch_form
            np.testing.assert_allclose(
                probs[b],
                form.candidate_probabilities_many(bits[b : b + 1], support)[0],
                rtol=1e-12,
                atol=1e-15,
            )
            if not exact:
                if n <= 5:
                    np.testing.assert_allclose(
                        stack.view(b).state_vector(),
                        form.state_vector(),
                        atol=1e-12,
                    )
                # Continue from one shared representation.
                state.ch_form = stack.view(b).copy()
                continue
            for name in ("Fw", "Gw", "Mw", "gamma", "vw", "sw"):
                np.testing.assert_array_equal(
                    getattr(stack, name)[b], getattr(form, name), err_msg=name
                )
            np.testing.assert_allclose(
                stack.omega[b], form.omega, rtol=1e-12, atol=1e-12
            )

    check()
    for step in _random_steps(rng, n, 12):
        _apply_step(stack, step)
        for state in scalars:
            _apply_step(state, step)
        # The CH form of a state is not unique: Hadamards inside a fused
        # moment pick their representation from the order the moment's
        # primitives run in, so a moment is compared by its amplitudes.
        check(exact=step[0] != "moment" or not _has_h(step))


# ----------------------------------------------------------------------
# U shared rows + an owner map vs B explicit copies, bit for bit
# ----------------------------------------------------------------------

@st.composite
def owner_cases(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 65]))
    batch = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.integers(min_value=1, max_value=batch))
    k = draw(st.integers(min_value=1, max_value=min(2, n)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, batch, rows, k, seed


def _random_owner(rng, batch, rows):
    """A random trajectory -> row map that uses every row."""
    return rng.permutation(
        np.concatenate([np.arange(rows), rng.integers(0, rows, batch - rows)])
    ).astype(np.intp)


def _per_trajectory(adapter, *names):
    """The named arrays of ``adapter.stack``/``tensor``, one row per
    trajectory (gathered through ``owner``)."""
    source = getattr(adapter, "stack", adapter)
    return [getattr(source, name)[adapter.owner] for name in names]


def _assert_same_trajectories(shared, explicit, names, close=()):
    """Bit for bit, except the ``close`` arrays (compared to 1e-12)."""
    assert shared.batch == explicit.batch
    for name, a, b in zip(
        names, _per_trajectory(shared, *names), _per_trajectory(explicit, *names)
    ):
        if name in close:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        else:
            assert np.array_equal(a, b), name


@given(owner_cases())
@settings(max_examples=100, deadline=None)
def test_state_vector_owner_map_matches_explicit_copies(case):
    n, batch, rows, k, seed = case
    n = min(n, 4)
    k = min(k, n)
    rng = np.random.default_rng(seed)
    support = tuple(sorted(int(a) for a in rng.choice(n, size=k, replace=False)))
    states = _random_state_stack(rng, rows, n)
    owner = _random_owner(rng, batch, rows)

    def pair():
        return (
            BatchedStateVector(states.copy(), n, owner.copy()),
            BatchedStateVector(states[owner].copy(), n),
        )

    bits = rng.integers(0, 2, size=(batch, n)).astype(np.int8)
    shared, explicit = pair()
    assert np.array_equal(
        shared.candidate_probabilities(bits, support),
        explicit.candidate_probabilities(bits, support),
    )

    kraus = _random_kraus(rng, int(rng.integers(1, 4)), k)
    u_branch = rng.random(batch)
    probs = shared.apply_kraus(kraus, support, bits, u_branch)
    assert np.array_equal(
        probs, explicit.apply_kraus(kraus, support, bits, u_branch)
    )
    assert len(shared.tensor) <= min(rows * len(kraus), batch)
    _assert_same_trajectories(shared, explicit, ["tensor"])

    # Random states give every outcome positive probability.
    shared, explicit = pair()
    outcomes = rng.integers(0, 2, size=(batch, k)).astype(np.int8)
    shared.project(support, outcomes)
    explicit.project(support, outcomes)
    assert len(shared.tensor) <= min(rows * 2**k, batch)
    _assert_same_trajectories(shared, explicit, ["tensor"])


def _random_stabilizer_stack(engine_of, state_cls, n, rows, rng):
    """``rows`` random stabilizer states as one stack (random prefixes)."""
    base, prefixes = _scalar_states(state_cls, n, rows, rng)
    stack = engine_of(base).stack(rows)
    for b, prefix in enumerate(prefixes):
        view = stack.view(b)
        for name, axes in prefix:
            _apply_prim(view, name, axes)
        if hasattr(stack, "store"):
            stack.store(b, view)
    return stack


@pytest.mark.parametrize("engine", ["tableau", "ch_form"])
def test_stack_candidate_oracle_answers_row_b_from_trajectory_b(engine):
    """Both stabilizer stacks: row ``b`` of ``candidate_probabilities_many``
    equals trajectory ``b``'s own answer through ``view(b)``."""
    from repro.states import (
        CliffordTableauSimulationState,
        StabilizerChFormSimulationState,
    )

    state_cls = {
        "tableau": CliffordTableauSimulationState,
        "ch_form": StabilizerChFormSimulationState,
    }[engine]
    n, rows = 5, 4
    rng = np.random.default_rng(27)
    stack = _random_stabilizer_stack(
        lambda state: getattr(state, engine), state_cls, n, rows, rng
    )
    # Trajectories 0 and 1 differ by one X, so answering every row from
    # one trajectory cannot pass.
    view = stack.view(1)
    view.apply_x(0)
    if hasattr(stack, "store"):
        stack.store(1, view)
    bits = rng.integers(0, 2, size=(rows, n)).astype(np.uint8)
    bits[1] = bits[0]
    differs = False
    for support in ([], [2], [0, 3], [1, 2, 4], list(range(n))):
        probs = stack.candidate_probabilities_many(bits, support)
        assert probs.shape == (rows, 2 ** len(support))
        for b in range(rows):
            np.testing.assert_allclose(
                probs[b],
                stack.view(b).candidate_probabilities_many(
                    bits[b : b + 1], support
                )[0],
                rtol=1e-12,
                atol=1e-15,
            )
        differs |= not np.array_equal(probs[0], probs[1])
    assert differs
    # probability_of answers every trajectory: one value per row.
    for b in range(rows):
        probs = stack.probability_of(bits[b])
        assert probs.shape == (rows,)
        for c in range(rows):
            np.testing.assert_allclose(
                probs[c], stack.view(c).probability_of(bits[b]),
                rtol=1e-12, atol=1e-15,
            )


def _possible_outcomes(stack, owner, support, rng):
    """A positive-probability support outcome per trajectory."""
    out = np.empty((len(owner), len(support)), dtype=np.int8)
    for b, row in enumerate(owner):
        scratch = stack.view(row).copy()
        out[b] = [scratch.measure(axis, rng) for axis in support]
    return out


def _stabilizer_owner_check(
    adapter_cls, engine_of, state_cls, names, case, close=()
):
    n, batch, rows, k, seed = case
    rng = np.random.default_rng(seed)
    support = [int(a) for a in rng.choice(n, size=k, replace=False)]
    stack = _random_stabilizer_stack(engine_of, state_cls, n, rows, rng)
    owner = _random_owner(rng, batch, rows)

    def pair():
        return (
            adapter_cls(stack.take(np.arange(rows)), n, owner.copy()),
            adapter_cls(stack.take(owner), n),
        )

    shared, explicit = pair()
    bits = _possible_outcomes(stack, owner, range(n), rng)
    flip = rng.random((batch, n)) < 0.2
    bits = np.where(flip, 1 - bits, bits).astype(np.int8)
    assert np.array_equal(
        shared.candidate_probabilities(bits, support),
        explicit.candidate_probabilities(bits, support),
    )

    outcomes = _possible_outcomes(stack, owner, support, rng)
    shared.project(support, outcomes)
    explicit.project(support, outcomes)
    assert shared.stack.batch <= min(rows * 2**k, batch)
    _assert_same_trajectories(shared, explicit, names, close)
    # The split rows go on evolving independently.
    step = _random_steps(rng, n, 1)[0]
    _apply_step(shared.stack, step)
    _apply_step(explicit.stack, step)
    _assert_same_trajectories(shared, explicit, names, close)


@given(owner_cases())
@settings(max_examples=40, deadline=None)
def test_tableau_owner_map_matches_explicit_copies(case):
    from repro.states import CliffordTableauSimulationState

    _stabilizer_owner_check(
        BatchedTableaus,
        lambda state: state.tableau,
        CliffordTableauSimulationState,
        ["xw", "zw", "r"],
        case,
    )


@given(owner_cases())
@settings(max_examples=40, deadline=None)
def test_ch_form_owner_map_matches_explicit_copies(case):
    from repro.states import StabilizerChFormSimulationState

    _stabilizer_owner_check(
        BatchedChForms,
        lambda state: state.ch_form,
        StabilizerChFormSimulationState,
        ["Fw", "Gw", "Mw", "gamma", "vw", "sw", "omega"],
        case,
        # A stacked phase update is one NumPy complex multiply, whose SIMD
        # lanes and scalar tail round differently, so ``omega`` depends
        # on its position in the stack in the last ulp (as in the
        # stacked-vs-scalar check above).
        close=("omega",),
    )
