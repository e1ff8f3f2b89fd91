"""Backend-conformance property suite: every backend vs the reference oracles.

All five state backends answer candidate queries through one row-block
oracle, ``candidate_probabilities_many(bits_list, support) -> (B, 2^k)``.
Nothing structural forces those fast paths to stay consistent with the
scalar Born oracles, so this suite pins them to the executable
specifications in :mod:`reference_engines` (``tests/reference_engines.py``):

* Random Clifford circuits drive the state-vector, tableau, CH-form,
  density-matrix, and MPS backends; every backend's oracle must agree
  with a per-candidate loop over the unpacked reference engines'
  ``probability_of`` to 1e-9, and every row with the backend's own
  scalar ``probability_of`` — for one-row queries, duplicate rows and
  unsorted supports too.
* Widths 63/64/65 — spanning the uint64 word boundary of the bit-packed
  engines — run the same check for the two stabilizer backends.
* Random near-Clifford (Clifford+Rz) circuits drive the CH-form backend
  through ``act_on_near_clifford`` and the reference CH form through an
  identically seeded branch replay, then compare oracles; the three dense
  backends apply the rotations exactly and must agree with each other and
  with their own scalar ``probability_of`` loops.
"""

import math

import numpy as np
import pytest

from repro import circuits as cirq
from repro.mps.state import MPSState
from repro.protocols import act_on
from repro.sampler.near_clifford import (
    act_on_near_clifford,
    rotation_branch_weights,
)
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)
from repro.states.chform import StabilizerChForm
from repro.states.tableau import CliffordTableau

from reference_engines import UnpackedCliffordTableau, UnpackedStabilizerChForm

ATOL = 1e-9


def reference_candidates(ref, bits, support):
    """Per-candidate ``probability_of`` loop over a reference engine."""
    k = len(support)
    candidate = list(int(b) for b in bits)
    out = np.empty(2**k)
    for idx in range(2**k):
        for pos, axis in enumerate(support):
            candidate[axis] = (idx >> (k - 1 - pos)) & 1
        out[idx] = ref.probability_of(candidate)
    return out


def scalar_candidates(state, bits, support):
    """Per-candidate loop over a backend's own ``probability_of``."""
    k = len(support)
    candidate = list(int(b) for b in bits)
    out = np.empty(2**k)
    for idx in range(2**k):
        for pos, axis in enumerate(support):
            candidate[axis] = (idx >> (k - 1 - pos)) & 1
        out[idx] = state.probability_of(candidate)
    return out


def check_rows(state, bits_list, support, expected):
    """The row-block oracle against ``expected`` and against the state's
    own scalar ``probability_of`` of every candidate: the whole block,
    each row asked alone (B = 1), and the block with a duplicated row."""
    many = state.candidate_probabilities_many(bits_list, support)
    np.testing.assert_allclose(many, expected, atol=ATOL, err_msg=repr(state))
    for row, bits in zip(many, bits_list):
        np.testing.assert_allclose(
            row, scalar_candidates(state, bits, support), atol=ATOL,
            err_msg=repr(state),
        )
        alone = state.candidate_probabilities_many([bits], support)
        assert alone.shape == (1, 2 ** len(support))
        np.testing.assert_allclose(alone[0], row, atol=ATOL, err_msg=repr(state))
    doubled = state.candidate_probabilities_many(
        [bits_list[-1]] + list(bits_list), support
    )
    np.testing.assert_array_equal(doubled[0], doubled[-1])
    np.testing.assert_allclose(doubled[1:], many, atol=ATOL, err_msg=repr(state))


def random_clifford_program(n, length, seed):
    """Engine-level (name, qubits) Clifford program (no SWAP: CH lacks it)."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(length):
        if n >= 2 and rng.random() < 0.4:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            ops.append((str(rng.choice(["cx", "cz"])), (a, b)))
        else:
            name = str(rng.choice(["h", "s", "sdg", "x", "y", "z"]))
            ops.append((name, (int(rng.integers(n)),)))
    return ops


def interesting_bitstrings(n, rng, count=3):
    """Random bitstrings plus the all-zeros string."""
    bits_list = [list(rng.integers(0, 2, n)) for _ in range(count)]
    bits_list.append([0] * n)
    return bits_list


def supports_for(n, rng):
    """A single-qubit and a two-qubit support pattern."""
    return [
        [int(rng.integers(n))],
        sorted(int(q) for q in rng.choice(n, 2, replace=False)),
    ]


class TestStabilizerEnginesAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_small_width_oracles_match_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        ops = random_clifford_program(n, 25, seed)
        tab, ch = CliffordTableau(n), StabilizerChForm(n)
        ref_tab, ref_ch = UnpackedCliffordTableau(n), UnpackedStabilizerChForm(n)
        for name, qs in ops:
            for engine in (tab, ch, ref_tab, ref_ch):
                getattr(engine, f"apply_{name}")(*qs)
        bits_list = interesting_bitstrings(n, rng)
        single, pair = supports_for(n, rng)
        for support in (single, pair, pair[::-1]):
            expected = np.array(
                [reference_candidates(ref_ch, b, support) for b in bits_list]
            )
            expected_tab = np.array(
                [reference_candidates(ref_tab, b, support) for b in bits_list]
            )
            np.testing.assert_allclose(expected, expected_tab, atol=ATOL)
            for engine in (tab, ch):
                check_rows(engine, bits_list, support, expected)

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_word_boundary_widths_match_reference(self, n):
        """Widths spanning the uint64 boundary agree with the references."""
        rng = np.random.default_rng(n)
        ops = random_clifford_program(n, 60, seed=n)
        tab, ch = CliffordTableau(n), StabilizerChForm(n)
        ref_ch = UnpackedStabilizerChForm(n)
        for name, qs in ops:
            for engine in (tab, ch, ref_ch):
                getattr(engine, f"apply_{name}")(*qs)
        # One in-support bitstring (sampled by forced measurement of the
        # reference) plus one random one; keep the front small because the
        # reference chains are intentionally slow.
        sampled = [
            ref_ch.measure(q, np.random.default_rng(7 * n + q)) for q in range(n)
        ]
        ref_ch2 = UnpackedStabilizerChForm(n)
        ref_tab = UnpackedCliffordTableau(n)
        for name, qs in ops:
            getattr(ref_ch2, f"apply_{name}")(*qs)
            getattr(ref_tab, f"apply_{name}")(*qs)
        bits_list = [sampled, list(rng.integers(0, 2, n))]
        # [n-2, n-1] spans the word boundary at n=65 (qubits 63|64); the
        # second support exercises an interior pair.
        for support in ([n - 2, n - 1], [n - 3, n - 2]):
            expected = np.array(
                [reference_candidates(ref_ch2, b, support) for b in bits_list]
            )
            for engine, ref_expected in ((ch, expected), (tab, expected)):
                many = engine.candidate_probabilities_many(bits_list, support)
                np.testing.assert_allclose(many, ref_expected, atol=ATOL)
        # Spot-check the tableau reference on the sampled (nonzero) string.
        support = [0, n - 1]
        np.testing.assert_allclose(
            tab.candidate_probabilities_many([sampled], support)[0],
            reference_candidates(ref_tab, sampled, support),
            atol=ATOL,
        )


    def test_very_wide_tableau_has_no_recursion_limit(self):
        """The off-support projection walk must stay iterative: a 1200-qubit
        query recursed once per qubit would blow the interpreter stack."""
        n = 1200
        tab = CliffordTableau(n)
        tab.apply_h(0)
        tab.apply_cx(0, n - 1)
        single = tab.candidate_probabilities_many([[0] * n], [0])
        np.testing.assert_allclose(single, [[0.5, 0.0]])
        front = [[0] * n, [0] * (n - 1) + [1], [1] * n]
        many = tab.candidate_probabilities_many(front, [0])
        np.testing.assert_allclose(
            many, [[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]
        )


def _apply_circuit(state, circuit):
    for op in circuit.all_operations():
        act_on(op, state)
    return state


class TestAllBackendsAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clifford_circuits_all_five_backends(self, seed):
        n = 5
        qs = cirq.LineQubit.range(n)
        circuit = cirq.random_clifford_circuit(qs, 18, random_state=seed)
        ref = UnpackedStabilizerChForm(n)
        for op in circuit.all_operations():
            phase, prims = op._stabilizer_sequence_()
            axes = [qs.index(q) for q in op.qubits]
            for name, local in prims:
                mapped = [axes[i] for i in local]
                getattr(ref, f"apply_{name.lower()}")(*mapped)
            ref.omega *= phase
        backends = [
            _apply_circuit(StateVectorSimulationState(qs), circuit),
            _apply_circuit(DensityMatrixSimulationState(qs), circuit),
            _apply_circuit(CliffordTableauSimulationState(qs), circuit),
            _apply_circuit(StabilizerChFormSimulationState(qs), circuit),
            _apply_circuit(MPSState(qs), circuit),
        ]
        rng = np.random.default_rng(200 + seed)
        bits_list = interesting_bitstrings(n, rng)
        for support in ([1], [0, 3], [4, 2], [0, 2, 4], [3, 0, 1]):
            expected = np.array(
                [reference_candidates(ref, b, support) for b in bits_list]
            )
            for state in backends:
                check_rows(state, bits_list, support, expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_clifford_dense_backends_agree(self, seed):
        """Clifford+T circuits: exact backends agree among themselves and
        with their own scalar probability loops to 1e-9."""
        n = 4
        qs = cirq.LineQubit.range(n)
        circuit = cirq.generate_random_circuit(
            qs,
            10,
            gate_domain={cirq.H: 1, cirq.S: 1, cirq.T: 1, cirq.CNOT: 2},
            random_state=seed,
        )
        backends = [
            _apply_circuit(StateVectorSimulationState(qs), circuit),
            _apply_circuit(DensityMatrixSimulationState(qs), circuit),
            _apply_circuit(MPSState(qs), circuit),
        ]
        rng = np.random.default_rng(300 + seed)
        bits_list = interesting_bitstrings(n, rng)
        for support in ([2], [0, 3], [1, 2]):
            expected = np.array(
                [scalar_candidates(backends[0], b, support) for b in bits_list]
            )
            for state in backends:
                many = state.candidate_probabilities_many(bits_list, support)
                np.testing.assert_allclose(
                    many, expected, atol=ATOL, err_msg=repr(state)
                )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_clifford_ch_backend_matches_reference_replay(self, seed):
        """Sum-over-Cliffords branches replayed onto the reference engine
        leave the packed CH backend's oracles agreeing to 1e-9."""
        n = 4
        qs = cirq.LineQubit.range(n)
        circuit = cirq.generate_random_circuit(
            qs,
            12,
            gate_domain={cirq.H: 1, cirq.S: 1, cirq.T: 1, cirq.CNOT: 2},
            random_state=seed,
        )
        state = StabilizerChFormSimulationState(qs, seed=seed)
        ref = UnpackedStabilizerChForm(n)
        replay_rng = np.random.default_rng(seed)  # same stream as the state
        for op in circuit.all_operations():
            act_on_near_clifford(op, state)
            seq = op._stabilizer_sequence_()
            axes = [qs.index(q) for q in op.qubits]
            if seq is not None:
                phase, prims = seq
                for name, local in prims:
                    getattr(ref, f"apply_{name.lower()}")(
                        *[axes[i] for i in local]
                    )
                ref.omega *= phase
                continue
            theta = float(op.gate.exponent) * math.pi
            c_i, c_s = rotation_branch_weights(theta)
            if replay_rng.random() < c_s / (c_i + c_s):
                ref.apply_s(axes[0])
        rng = np.random.default_rng(400 + seed)
        bits_list = interesting_bitstrings(n, rng)
        for support in ([0], [1, 3]):
            expected = np.array(
                [reference_candidates(ref, b, support) for b in bits_list]
            )
            many = state.candidate_probabilities_many(bits_list, support)
            np.testing.assert_allclose(many, expected, atol=ATOL)


BASIS_BACKENDS = {
    "state_vector": StateVectorSimulationState,
    "density_matrix": DensityMatrixSimulationState,
    "ch_form": StabilizerChFormSimulationState,
    "tableau": CliffordTableauSimulationState,
    "mps": MPSState,
}


@pytest.mark.parametrize("backend", sorted(BASIS_BACKENDS))
def test_out_of_range_initial_state_is_rejected(backend):
    """Every backend accepts exactly the basis indices ``[0, 2^n)``."""
    state_cls = BASIS_BACKENDS[backend]
    qs = cirq.LineQubit.range(2)
    for bad in (-1, 4, 8):
        with pytest.raises(ValueError, match="initial_state .* out of range"):
            state_cls(qs, initial_state=bad)
    state = state_cls(qs, initial_state=3)
    np.testing.assert_allclose(
        scalar_candidates(state, [0, 0], [0, 1]), [0.0, 0.0, 0.0, 1.0]
    )
