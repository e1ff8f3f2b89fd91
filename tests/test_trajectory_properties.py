"""Property tests pinning the batched trajectory engine's kernels.

Four kernels carry the batched engine's correctness and get adversarial
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
  engines, gate by gate from per-trajectory random prefixes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampler.trajectory_batch import (
    BatchedStateVector,
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
    probs = np.array([[0.5, 0.5], [0.0, 0.0]])
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
