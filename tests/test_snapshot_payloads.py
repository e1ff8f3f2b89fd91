"""Property tests for the packed backends' snapshot/restore hooks.

The warm-pool executor ships the initial state to workers as the registry
``snapshot`` payload — raw ``uint64`` words for the bit-packed tableau and
CH-form backends, raw tensor bytes plus bond metadata for the MPS backend.
These tests pin the hook contract:

* **Round-trip fidelity** — after a random Clifford prefix, restoring the
  payload reproduces the exact engine state, validated against the
  retained unpacked reference engines in :mod:`repro.states.reference`
  (the same oracles the bit-packing kernels are pinned to), at widths
  63/64/65 spanning the ``uint64`` word boundary.
* **Independence** — the restored state owns writable copies; mutating it
  never touches the snapshotted original.
* **Payload economy** — the payload pickles strictly smaller than the
  state object itself (that is the point of shipping raw words), and the
  payload tuples are hashable so the warm pool can key on them.
* **Type safety** — a subclass inheriting a registered parent's
  descriptor is *not* snapshotted (restore would lose the subclass), it
  falls back to object pickling.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as bgls
from repro import circuits as cirq
from repro.sampler.service import _WorkerPayload
from repro.states import capabilities_for
from repro.states.chform import StabilizerChForm
from repro.states.reference import (
    UnpackedCliffordTableau,
    UnpackedStabilizerChForm,
)
from repro.states.stabilizer import StabilizerChFormSimulationState
from repro.states.tableau import CliffordTableau, CliffordTableauSimulationState

WORD_BOUNDARY_WIDTHS = (63, 64, 65)

_ONE_QUBIT = ["h", "s", "sdg", "x", "y", "z"]
_TWO_QUBIT = ["cx", "cz"]


def random_ops(n, length, rng):
    """A random Clifford primitive stream shared by packed + reference."""
    ops = []
    for _ in range(length):
        if n >= 2 and rng.random() < 0.5:
            name = _TWO_QUBIT[rng.integers(len(_TWO_QUBIT))]
            a = int(rng.integers(n))
            b = int(rng.integers(n - 1))
            if b >= a:
                b += 1
            ops.append((name, (a, b)))
        else:
            name = _ONE_QUBIT[rng.integers(len(_ONE_QUBIT))]
            ops.append((name, (int(rng.integers(n)),)))
    return ops


def apply_ops(engine, ops):
    for name, args in ops:
        getattr(engine, f"apply_{name}")(*args)


@st.composite
def clifford_prefixes(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    length = draw(st.integers(min_value=0, max_value=25))
    return n, random_ops(n, length, np.random.default_rng(seed))


class TestTableauRoundTrip:
    @given(clifford_prefixes())
    @settings(max_examples=40, deadline=None)
    def test_to_from_words_is_exact(self, prefix):
        n, ops = prefix
        packed = CliffordTableau(n)
        apply_ops(packed, ops)
        restored = CliffordTableau.from_words(*packed.to_words())
        assert restored == packed
        np.testing.assert_array_equal(restored.x[: 2 * n], packed.x[: 2 * n])
        np.testing.assert_array_equal(restored.z[: 2 * n], packed.z[: 2 * n])

    @pytest.mark.parametrize("n", WORD_BOUNDARY_WIDTHS)
    def test_word_boundary_widths_match_reference(self, n):
        rng = np.random.default_rng(100 + n)
        ops = random_ops(n, 60, rng)
        packed = CliffordTableau(n)
        reference = UnpackedCliffordTableau(n)
        apply_ops(packed, ops)
        apply_ops(reference, ops)
        restored = CliffordTableau.from_words(*packed.to_words())
        np.testing.assert_array_equal(restored.x[: 2 * n], reference.x[: 2 * n])
        np.testing.assert_array_equal(restored.z[: 2 * n], reference.z[: 2 * n])
        np.testing.assert_array_equal(restored.r[: 2 * n], reference.r[: 2 * n])
        # The restored engine answers probability queries identically.
        for _ in range(3):
            bits = list(rng.integers(0, 2, n))
            assert restored.probability_of(bits) == pytest.approx(
                reference.probability_of(bits), abs=1e-12
            )

    def test_restored_state_is_independent(self):
        packed = CliffordTableau(5)
        apply_ops(packed, random_ops(5, 20, np.random.default_rng(0)))
        before = packed.copy()
        restored = CliffordTableau.from_words(*packed.to_words())
        restored.apply_h(0)
        restored.apply_cx(1, 2)
        assert packed == before
        # Scratch row is functional on the restored copy.
        assert restored.deterministic_outcome(0) in (None, 0, 1)


class TestChFormRoundTrip:
    @given(clifford_prefixes())
    @settings(max_examples=40, deadline=None)
    def test_to_from_words_is_exact(self, prefix):
        n, ops = prefix
        packed = StabilizerChForm(n)
        apply_ops(packed, ops)
        restored = StabilizerChForm.from_words(*packed.to_words())
        np.testing.assert_array_equal(restored.F, packed.F)
        np.testing.assert_array_equal(restored.G, packed.G)
        np.testing.assert_array_equal(restored.M, packed.M)
        np.testing.assert_array_equal(restored.gamma, packed.gamma)
        np.testing.assert_array_equal(restored.v, packed.v)
        np.testing.assert_array_equal(restored.s, packed.s)
        assert restored.omega == packed.omega

    @pytest.mark.parametrize("n", WORD_BOUNDARY_WIDTHS)
    def test_word_boundary_widths_match_reference(self, n):
        rng = np.random.default_rng(200 + n)
        ops = random_ops(n, 60, rng)
        packed = StabilizerChForm(n)
        reference = UnpackedStabilizerChForm(n)
        apply_ops(packed, ops)
        apply_ops(reference, ops)
        restored = StabilizerChForm.from_words(*packed.to_words())
        np.testing.assert_array_equal(restored.F, reference.F)
        np.testing.assert_array_equal(restored.G, reference.G)
        np.testing.assert_array_equal(restored.M, reference.M)
        np.testing.assert_array_equal(restored.gamma, reference.gamma)
        np.testing.assert_array_equal(restored.v, reference.v)
        np.testing.assert_array_equal(restored.s, reference.s)
        assert restored.omega == pytest.approx(reference.omega, abs=1e-12)
        for _ in range(3):
            bits = list(rng.integers(0, 2, n))
            expected = abs(reference.inner_product_with_basis_state(bits)) ** 2
            assert restored.probability_of(bits) == pytest.approx(
                expected, abs=1e-12
            )

    def test_restored_state_is_independent(self):
        packed = StabilizerChForm(5)
        apply_ops(packed, random_ops(5, 20, np.random.default_rng(1)))
        words = packed.to_words()
        restored = StabilizerChForm.from_words(*words)
        restored.apply_h(0)
        restored.apply_s(1)
        np.testing.assert_array_equal(
            StabilizerChForm.from_words(*packed.to_words()).F, packed.F
        )
        assert packed.to_words() == words


class TestMPSRoundTrip:
    """The MPS packed payload: raw tensor bytes + bond metadata."""

    @staticmethod
    def entangled_mps(n, seed=0, options=None):
        from repro.mps import MPSOptions, MPSState

        qubits = cirq.LineQubit.range(n)
        state = MPSState(qubits, options=options)
        rng = np.random.default_rng(seed)
        for k in range(n):
            bgls.act_on(cirq.H.on(qubits[k]), state)
        for _ in range(2 * n):
            a = int(rng.integers(n - 1))
            bgls.act_on(cirq.CNOT(qubits[a], qubits[a + 1]), state)
            bgls.act_on(
                cirq.Rx(float(rng.random())).on(qubits[int(rng.integers(n))]),
                state,
            )
        return state

    @pytest.mark.parametrize("n", (2, 5, 9))
    def test_roundtrip_preserves_amplitudes(self, n):
        from repro.mps import MPSState

        state = self.entangled_mps(n, seed=n)
        caps = capabilities_for(MPSState)
        assert caps.snapshot is not None and caps.restore is not None
        restored = caps.restore(caps.snapshot(state))
        assert type(restored) is MPSState
        assert restored.qubits == state.qubits
        assert restored.options == state.options
        np.testing.assert_allclose(
            restored.state_vector(), state.state_vector(), atol=1e-12
        )
        assert restored.estimated_fidelity == state.estimated_fidelity

    def test_restored_state_keeps_evolving_without_bond_collisions(self):
        """Bond metadata must ship: the restored network's new bonds must
        not collide with the shipped ones (the bond-name counter)."""
        from repro.mps import MPSState

        state = self.entangled_mps(6, seed=1)
        caps = capabilities_for(MPSState)
        restored = caps.restore(caps.snapshot(state))
        reference = state.copy(seed=0)
        qubits = state.qubits
        for a, b in ((0, 1), (2, 3), (1, 2), (4, 5)):
            bgls.act_on(cirq.CNOT(qubits[a], qubits[b]), restored)
            bgls.act_on(cirq.CNOT(qubits[a], qubits[b]), reference)
        np.testing.assert_allclose(
            restored.state_vector(), reference.state_vector(), atol=1e-10
        )

    def test_truncation_options_round_trip(self):
        from repro.mps import MPSOptions, MPSState

        options = MPSOptions(max_bond=2, cutoff=1e-6, renormalize=False)
        state = self.entangled_mps(6, seed=2, options=options)
        caps = capabilities_for(MPSState)
        restored = caps.restore(caps.snapshot(state))
        assert restored.options == options
        assert restored.estimated_fidelity == state.estimated_fidelity

    def test_restored_tensors_are_independent_and_writable(self):
        from repro.mps import MPSState

        state = self.entangled_mps(4, seed=3)
        caps = capabilities_for(MPSState)
        payload = caps.snapshot(state)
        restored = caps.restore(payload)
        before = state.state_vector().copy()
        bgls.act_on(cirq.X.on(state.qubits[0]), restored)
        restored.renormalize()
        np.testing.assert_allclose(state.state_vector(), before, atol=1e-14)
        assert caps.snapshot(state) == payload

    @pytest.mark.parametrize("n", (4, 8, 16))
    def test_payload_pickles_smaller_than_state(self, n):
        from repro.mps import MPSState

        state = self.entangled_mps(n, seed=n)
        caps = capabilities_for(MPSState)
        payload_bytes = len(pickle.dumps(caps.snapshot(state)))
        object_bytes = len(pickle.dumps(state))
        assert payload_bytes < object_bytes, (
            f"MPS n={n}: payload {payload_bytes}B should beat pickled "
            f"object {object_bytes}B"
        )

    def test_payload_is_hashable_and_content_keyed(self):
        from repro.mps import MPSState

        qubits = cirq.LineQubit.range(5)
        a, b = MPSState(qubits), MPSState(qubits)
        caps = capabilities_for(MPSState)
        pa, pb = caps.snapshot(a), caps.snapshot(b)
        assert pa == pb
        assert hash(pa) == hash(pb)
        bgls.act_on(cirq.H.on(qubits[2]), b)
        assert caps.snapshot(b) != pa

    def test_subclass_falls_back_to_object_pickling(self):
        from repro import born
        from repro.mps import MPSState

        class TaggedMPSState(MPSState):
            pass

        qubits = cirq.LineQubit.range(3)
        sim = bgls.Simulator(
            TaggedMPSState(qubits),
            bgls.act_on,
            born.compute_probability_mps,
        )
        payload = _WorkerPayload(sim, (object(),))
        assert payload.restore is None
        assert type(payload.state_payload) is TaggedMPSState


class TestRegistryHooks:
    """The wrapper-level snapshot/restore functions the registry ships."""

    @pytest.mark.parametrize(
        "state_cls", [CliffordTableauSimulationState, StabilizerChFormSimulationState]
    )
    @pytest.mark.parametrize("n", WORD_BOUNDARY_WIDTHS)
    def test_roundtrip_through_registry(self, state_cls, n):
        qubits = cirq.LineQubit.range(n)
        circuit = cirq.random_clifford_circuit(qubits, 6, random_state=n)
        state = state_cls(qubits)
        for op in circuit.all_operations():
            bgls.act_on(op, state)
        caps = capabilities_for(state_cls)
        assert caps.snapshot is not None and caps.restore is not None
        payload = caps.snapshot(state)
        restored = caps.restore(payload)
        assert type(restored) is state_cls
        assert restored.qubits == state.qubits
        rng = np.random.default_rng(7)
        for _ in range(4):
            bits = list(rng.integers(0, 2, n))
            assert restored.probability_of(bits) == pytest.approx(
                state.probability_of(bits), abs=1e-12
            )
        # The restored wrapper is fully functional: gates + measurement.
        bgls.act_on(cirq.H.on(qubits[0]), restored)
        assert restored.measure([0])[0] in (0, 1)

    @pytest.mark.parametrize(
        "state_cls", [CliffordTableauSimulationState, StabilizerChFormSimulationState]
    )
    @pytest.mark.parametrize("n", WORD_BOUNDARY_WIDTHS)
    def test_payload_pickles_smaller_than_state(self, state_cls, n):
        qubits = cirq.LineQubit.range(n)
        circuit = cirq.random_clifford_circuit(qubits, 6, random_state=n)
        state = state_cls(qubits)
        for op in circuit.all_operations():
            bgls.act_on(op, state)
        caps = capabilities_for(state_cls)
        payload_bytes = len(pickle.dumps(caps.snapshot(state)))
        object_bytes = len(pickle.dumps(state))
        assert payload_bytes < object_bytes, (
            f"{state_cls.__name__} n={n}: payload {payload_bytes}B should "
            f"beat pickled object {object_bytes}B"
        )

    def test_payload_is_hashable_and_key_stable(self):
        """Warm-pool keying needs hashable, content-equal payloads."""
        qubits = cirq.LineQubit.range(17)
        a = CliffordTableauSimulationState(qubits)
        b = CliffordTableauSimulationState(qubits)
        caps = capabilities_for(CliffordTableauSimulationState)
        pa, pb = caps.snapshot(a), caps.snapshot(b)
        assert pa == pb
        assert hash(pa) == hash(pb)
        b.tableau.apply_h(3)
        assert caps.snapshot(b) != pa

    def test_subclass_falls_back_to_object_pickling(self):
        """Restoring a parent payload would lose the subclass type, so the
        worker payload must pickle the object instead of snapshotting."""

        class TaggedTableauState(CliffordTableauSimulationState):
            pass

        qubits = cirq.LineQubit.range(3)
        from repro import born

        sim = bgls.Simulator(
            TaggedTableauState(qubits),
            bgls.act_on,
            born.compute_probability_tableau,
        )
        payload = _WorkerPayload(sim, (object(),))
        assert payload.restore is None
        assert type(payload.state_payload) is TaggedTableauState
