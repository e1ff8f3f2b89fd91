"""Property tests: packed stabilizer kernels vs the unpacked reference path.

The production engines (:class:`CliffordTableau`, :class:`StabilizerChForm`)
store their binary matrices as ``uint64`` words; the pre-packing
implementations are retained verbatim in :mod:`reference_engines` (``tests/reference_engines.py``).
These tests drive both through identical random Clifford programs —
including measurement/collapse and forced projections — and assert
*bit-exact* agreement gate-for-gate, plus agreement with the dense
state-vector simulator on the final distribution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.states import bitpack as bp
from repro.states.chform import StabilizerChForm
from repro.states.tableau import CliffordTableau

from reference_engines import UnpackedCliffordTableau, UnpackedStabilizerChForm

_ONE_QUBIT = ["h", "s", "sdg", "x", "y", "z"]
_TWO_QUBIT = ["cx", "cz", "swap"]
_CH_TWO_QUBIT = ["cx", "cz"]  # the CH form has no native SWAP primitive


@st.composite
def clifford_programs(draw, two_qubit=tuple(_TWO_QUBIT)):
    n = draw(st.integers(min_value=1, max_value=6))
    length = draw(st.integers(min_value=0, max_value=30))
    ops = []
    for _ in range(length):
        if n >= 2 and draw(st.booleans()):
            name = draw(st.sampled_from(list(two_qubit)))
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            if b >= a:
                b += 1
            ops.append((name, (a, b)))
        else:
            name = draw(st.sampled_from(_ONE_QUBIT))
            ops.append((name, (draw(st.integers(0, n - 1)),)))
    return n, ops


def _assert_tableaus_equal(packed: CliffordTableau, ref: UnpackedCliffordTableau):
    np.testing.assert_array_equal(packed.x, ref.x)
    np.testing.assert_array_equal(packed.z, ref.z)
    np.testing.assert_array_equal(packed.r, ref.r)


def _assert_chforms_equal(packed: StabilizerChForm, ref: UnpackedStabilizerChForm):
    np.testing.assert_array_equal(packed.F, ref.F)
    np.testing.assert_array_equal(packed.G, ref.G)
    np.testing.assert_array_equal(packed.M, ref.M)
    np.testing.assert_array_equal(packed.gamma, ref.gamma)
    np.testing.assert_array_equal(packed.v, ref.v)
    np.testing.assert_array_equal(packed.s, ref.s)
    assert packed.omega == pytest.approx(ref.omega, abs=1e-12)


class TestBitpackHelpers:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        for n in (1, 7, 63, 64, 65, 130):
            mat = rng.integers(0, 2, size=(5, n)).astype(np.uint8)
            packed = bp.pack_rows(mat)
            assert packed.dtype == np.uint64
            assert packed.shape == (5, bp.num_words(n))
            np.testing.assert_array_equal(bp.unpack_rows(packed, n), mat)

    def test_popcount_matches_unpacked(self):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 2**64, size=(4, 3), dtype=np.uint64)
        expected = bp.unpack_rows(words, 192).sum()
        assert bp.count_bits(words) == int(expected)

    def test_bit_accessors(self):
        vec = np.zeros(2, dtype=np.uint64)
        for col in (0, 1, 63, 64, 100):
            bp.set_bit(vec, col, 1)
            assert bp.get_bit(vec, col) == 1
        np.testing.assert_array_equal(bp.bit_positions(vec, 128), [0, 1, 63, 64, 100])
        bp.set_bit(vec, 63, 0)
        assert bp.get_bit(vec, 63) == 0

    def test_mask_sets_first_n_bits(self):
        for n in (1, 64, 65, 127, 128):
            m = bp.mask(n)
            assert bp.count_bits(m) == n


class TestPackedTableauAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(clifford_programs())
    def test_gate_for_gate_agreement(self, program):
        n, ops = program
        packed = CliffordTableau(n)
        ref = UnpackedCliffordTableau(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
            getattr(ref, f"apply_{name}")(*qs)
            _assert_tableaus_equal(packed, ref)

    @settings(max_examples=40, deadline=None)
    @given(clifford_programs(), st.integers(0, 2**31 - 1))
    def test_measurement_collapse_agreement(self, program, seed):
        """Identical RNG streams drive identical collapses in both engines."""
        n, ops = program
        packed = CliffordTableau(n)
        ref = UnpackedCliffordTableau(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
            getattr(ref, f"apply_{name}")(*qs)
        for a in range(n):
            bit_p = packed.measure(a, np.random.default_rng(seed + a))
            bit_r = ref.measure(a, np.random.default_rng(seed + a))
            assert bit_p == bit_r
            _assert_tableaus_equal(packed, ref)

    @settings(max_examples=40, deadline=None)
    @given(clifford_programs(), st.integers(0, 2**31 - 1))
    def test_project_measurement_agreement(self, program, seed):
        """Forced projections return identical 0.0 / 0.5 / 1.0 factors."""
        n, ops = program
        packed = CliffordTableau(n)
        ref = UnpackedCliffordTableau(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
            getattr(ref, f"apply_{name}")(*qs)
        rng = np.random.default_rng(seed)
        for a in range(n):
            bit = int(rng.integers(2))
            f_p = packed.project_measurement(a, bit)
            f_r = ref.project_measurement(a, bit)
            assert f_p == f_r
            if f_p != 0.0:  # 0.0 leaves the state untouched by contract
                _assert_tableaus_equal(packed, ref)

    @settings(max_examples=30, deadline=None)
    @given(clifford_programs())
    def test_probability_of_agreement(self, program):
        n, ops = program
        packed = CliffordTableau(n)
        ref = UnpackedCliffordTableau(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
            getattr(ref, f"apply_{name}")(*qs)
        rng = np.random.default_rng(7)
        for _ in range(4):
            bits = list(rng.integers(0, 2, size=n))
            assert packed.probability_of(bits) == ref.probability_of(bits)

    def test_forced_outcome_edge_cases(self):
        """project_measurement edge cases: forced 0.0 and 1.0 outcomes."""
        t = CliffordTableau(2)  # |00>
        assert t.project_measurement(0, 0) == 1.0
        assert t.project_measurement(0, 1) == 0.0
        # A zero-probability projection must leave the state untouched.
        ref = UnpackedCliffordTableau(2)
        ref.project_measurement(0, 1)
        _assert_tableaus_equal(t, ref)
        t.apply_x(1)
        assert t.project_measurement(1, 1) == 1.0
        t.apply_h(0)
        assert t.project_measurement(0, 1) == 0.5
        assert t.deterministic_outcome(0) == 1

    @settings(max_examples=30, deadline=None)
    @given(clifford_programs())
    def test_candidate_probabilities_match_per_candidate_loop(self, program):
        n, ops = program
        packed = CliffordTableau(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
        rng = np.random.default_rng(11)
        bits = list(rng.integers(0, 2, size=n))
        for support in ([0], [n - 1], list({0, n - 1}), list(range(min(n, 2)))):
            (got,) = packed.candidate_probabilities_many([bits], support)
            k = len(support)
            expected = np.empty(2**k)
            cand = list(bits)
            for idx in range(2**k):
                for pos, axis in enumerate(support):
                    cand[axis] = (idx >> (k - 1 - pos)) & 1
                expected[idx] = packed.probability_of(cand)
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestPackedChFormAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(clifford_programs(two_qubit=tuple(_CH_TWO_QUBIT)))
    def test_gate_for_gate_agreement(self, program):
        n, ops = program
        packed = StabilizerChForm(n)
        ref = UnpackedStabilizerChForm(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
            getattr(ref, f"apply_{name}")(*qs)
            _assert_chforms_equal(packed, ref)

    @settings(max_examples=40, deadline=None)
    @given(clifford_programs(two_qubit=tuple(_CH_TWO_QUBIT)), st.integers(0, 2**31 - 1))
    def test_measurement_collapse_agreement(self, program, seed):
        n, ops = program
        packed = StabilizerChForm(n)
        ref = UnpackedStabilizerChForm(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
            getattr(ref, f"apply_{name}")(*qs)
        for a in range(n):
            bit_p = packed.measure(a, np.random.default_rng(seed + a))
            bit_r = ref.measure(a, np.random.default_rng(seed + a))
            assert bit_p == bit_r
            _assert_chforms_equal(packed, ref)

    @settings(max_examples=30, deadline=None)
    @given(clifford_programs(two_qubit=tuple(_CH_TWO_QUBIT)))
    def test_amplitudes_agree_exactly(self, program):
        n, ops = program
        packed = StabilizerChForm(n)
        ref = UnpackedStabilizerChForm(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
            getattr(ref, f"apply_{name}")(*qs)
        rng = np.random.default_rng(3)
        for _ in range(6):
            bits = list(rng.integers(0, 2, size=n))
            assert packed.inner_product_with_basis_state(
                bits
            ) == ref.inner_product_with_basis_state(bits)

    @settings(max_examples=30, deadline=None)
    @given(clifford_programs(two_qubit=tuple(_CH_TWO_QUBIT)))
    def test_candidate_probabilities_match_per_candidate_loop(self, program):
        n, ops = program
        packed = StabilizerChForm(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
        rng = np.random.default_rng(5)
        bits = list(rng.integers(0, 2, size=n))
        for support in ([0], [n - 1], list({0, n - 1})):
            (got,) = packed.candidate_probabilities_many([bits], support)
            k = len(support)
            expected = np.empty(2**k)
            cand = list(bits)
            for idx in range(2**k):
                for pos, axis in enumerate(support):
                    cand[axis] = (idx >> (k - 1 - pos)) & 1
                expected[idx] = packed.probability_of(cand)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_project_measurement_forced_edge_cases(self):
        form = StabilizerChForm(2)  # |00>
        form.project_measurement(0, 0)  # probability 1: no-op
        ref = UnpackedStabilizerChForm(2)
        _assert_chforms_equal(form, ref)
        with pytest.raises(ValueError, match="probability 0"):
            form.project_measurement(0, 1)
        form.apply_h(0)
        form.project_measurement(0, 1)
        is_random, bit = form.measurement_outcome_info(0)
        assert not is_random and bit == 1


class TestCrossWordBoundaries:
    """The same agreement checks at widths spanning uint64 word boundaries.

    Hypothesis keeps its widths small; these parametrized runs are the CI
    coverage for multi-word packing (tail masks, ``packed_eye`` beyond
    word 0, cross-word cumulative XOR in ``deterministic_outcome`` and
    the CH amplitude accumulation).
    """

    WIDTHS = [63, 64, 65, 70, 130]

    @staticmethod
    def _random_program(n, length, rng, two_qubit):
        ops = []
        for _ in range(length):
            if rng.random() < 0.5:
                a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
                ops.append((two_qubit[int(rng.integers(len(two_qubit)))], (a, b)))
            else:
                ops.append(
                    (_ONE_QUBIT[int(rng.integers(len(_ONE_QUBIT)))], (int(rng.integers(n)),))
                )
        return ops

    @pytest.mark.parametrize("n", WIDTHS)
    def test_tableau_wide_agreement(self, n):
        rng = np.random.default_rng(n)
        ops = self._random_program(n, 50, rng, _TWO_QUBIT)
        packed = CliffordTableau(n)
        ref = UnpackedCliffordTableau(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
            getattr(ref, f"apply_{name}")(*qs)
        _assert_tableaus_equal(packed, ref)
        for a in range(0, n, 7):
            assert packed.measure(a, np.random.default_rng(a)) == ref.measure(
                a, np.random.default_rng(a)
            )
        _assert_tableaus_equal(packed, ref)
        bits = [packed.copy().measure(a, np.random.default_rng(1)) for a in range(n)]
        support = [62, 65] if n > 65 else [0, n - 1]
        (got,) = packed.candidate_probabilities_many([bits], support)
        cand = list(bits)
        for idx in range(4):
            cand[support[0]] = (idx >> 1) & 1
            cand[support[1]] = idx & 1
            assert got[idx] == pytest.approx(ref.probability_of(cand), abs=1e-12)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_chform_wide_agreement(self, n):
        rng = np.random.default_rng(n + 1)
        ops = self._random_program(n, 50, rng, _CH_TWO_QUBIT)
        packed = StabilizerChForm(n)
        ref = UnpackedStabilizerChForm(n)
        for name, qs in ops:
            getattr(packed, f"apply_{name}")(*qs)
            getattr(ref, f"apply_{name}")(*qs)
        _assert_chforms_equal(packed, ref)
        for _ in range(5):
            bits = list(rng.integers(0, 2, size=n))
            assert packed.inner_product_with_basis_state(
                bits
            ) == ref.inner_product_with_basis_state(bits)
            assert packed.probability_of(bits) == pytest.approx(
                ref.probability_of(bits), abs=1e-12
            )
        support = [62, 65] if n > 65 else [0, n - 1]
        bits = list(rng.integers(0, 2, size=n))
        (got,) = packed.candidate_probabilities_many([bits], support)
        cand = list(bits)
        for idx in range(4):
            cand[support[0]] = (idx >> 1) & 1
            cand[support[1]] = idx & 1
            assert got[idx] == pytest.approx(ref.probability_of(cand), abs=1e-12)
        for a in range(0, n, 9):
            assert packed.measure(a, np.random.default_rng(a)) == ref.measure(
                a, np.random.default_rng(a)
            )
        _assert_chforms_equal(packed, ref)


class TestPackedEnginesAgainstStateVector:
    """Both packed engines reproduce dense wavefunction distributions."""

    @settings(max_examples=25, deadline=None)
    @given(clifford_programs(two_qubit=tuple(_CH_TWO_QUBIT)))
    def test_chform_state_vector_matches_dense(self, program):
        from repro import circuits as cirq
        from repro.protocols import act_on
        from repro.states import StateVectorSimulationState

        n, ops = program
        qubits = cirq.LineQubit.range(n)
        gate_map = {
            "h": cirq.H, "s": cirq.S, "sdg": cirq.S_DAG,
            "x": cirq.X, "y": cirq.Y, "z": cirq.Z,
            "cx": cirq.CNOT, "cz": cirq.CZ,
        }
        form = StabilizerChForm(n)
        sv = StateVectorSimulationState(qubits)
        for name, qs in ops:
            getattr(form, f"apply_{name}")(*qs)
            act_on(gate_map[name].on(*[qubits[q] for q in qs]), sv)
        np.testing.assert_allclose(
            form.state_vector(), sv.tensor.reshape(-1), atol=1e-9
        )

    @settings(max_examples=25, deadline=None)
    @given(clifford_programs())
    def test_tableau_probabilities_match_dense(self, program):
        from repro import circuits as cirq
        from repro.protocols import act_on
        from repro.states import StateVectorSimulationState

        n, ops = program
        qubits = cirq.LineQubit.range(n)
        gate_map = {
            "h": cirq.H, "s": cirq.S, "sdg": cirq.S_DAG,
            "x": cirq.X, "y": cirq.Y, "z": cirq.Z,
            "cx": cirq.CNOT, "cz": cirq.CZ, "swap": cirq.SWAP,
        }
        tab = CliffordTableau(n)
        sv = StateVectorSimulationState(qubits)
        for name, qs in ops:
            getattr(tab, f"apply_{name}")(*qs)
            act_on(gate_map[name].on(*[qubits[q] for q in qs]), sv)
        dense = np.abs(sv.tensor.reshape(-1)) ** 2
        for idx in range(2**n):
            bits = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
            assert tab.probability_of(bits) == pytest.approx(
                float(dense[idx]), abs=1e-9
            )
