"""Property-based tests (hypothesis) for the Aaronson-Gottesman tableau.

Central invariants: for ANY Clifford gate sequence the tableau's bitstring
probabilities match the dense simulator exactly, probabilities form a valid
distribution supported on an affine subspace (size a power of two), and
forced projection is consistent with the probability chain rule.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import circuits as cirq
from repro.protocols import act_on
from repro.states import (
    CliffordTableauSimulationState,
    StateVectorSimulationState,
)
from repro.states.tableau import CliffordTableau

from reference_engines import UnpackedCliffordTableau

_ONE_QUBIT = [cirq.H, cirq.S, cirq.S_DAG, cirq.X, cirq.Y, cirq.Z]
_TWO_QUBIT = [cirq.CNOT, cirq.CZ, cirq.SWAP]


@st.composite
def clifford_programs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    length = draw(st.integers(min_value=0, max_value=25))
    ops = []
    for _ in range(length):
        if n >= 2 and draw(st.booleans()):
            gate = draw(st.sampled_from(_TWO_QUBIT))
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            if b >= a:
                b += 1
            ops.append((gate, (a, b)))
        else:
            gate = draw(st.sampled_from(_ONE_QUBIT))
            ops.append((gate, (draw(st.integers(0, n - 1)),)))
    return n, ops


def _evolve_both(n, ops):
    qs = cirq.LineQubit.range(n)
    sv = StateVectorSimulationState(qs)
    tb = CliffordTableauSimulationState(qs)
    for gate, axes in ops:
        op = gate.on(*(qs[a] for a in axes))
        act_on(op, sv)
        act_on(op, tb)
    return sv, tb


def _bits(i, n):
    return [(i >> (n - 1 - j)) & 1 for j in range(n)]


@given(clifford_programs())
@settings(max_examples=100, deadline=None)
def test_tableau_probabilities_match_dense(program):
    n, ops = program
    sv, tb = _evolve_both(n, ops)
    for i in range(2**n):
        b = _bits(i, n)
        assert abs(tb.probability_of(b) - sv.probability_of(b)) < 1e-9


@given(clifford_programs())
@settings(max_examples=100, deadline=None)
def test_tableau_support_is_power_of_two(program):
    n, ops = program
    _, tb = _evolve_both(n, ops)
    probs = [tb.probability_of(_bits(i, n)) for i in range(2**n)]
    nonzero = [p for p in probs if p > 0]
    assert abs(sum(probs) - 1.0) < 1e-9
    # Stabilizer states are uniform over an affine subspace.
    size = len(nonzero)
    assert size & (size - 1) == 0
    for p in nonzero:
        assert abs(p - 1.0 / size) < 1e-9


@given(clifford_programs(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_forced_projection_chain_rule(program, seed):
    """Projecting qubit 0 onto b0 then asking P(b | b0) reproduces P."""
    n, ops = program
    _, tb = _evolve_both(n, ops)
    rng = np.random.default_rng(seed)
    target = [int(rng.integers(2)) for _ in range(n)]
    p_full = tb.probability_of(target)
    scratch = tb.tableau.copy()
    chained = 1.0
    for axis, bit in enumerate(target):
        chained *= scratch.project_measurement(axis, bit)
        if chained == 0.0:
            break
    assert abs(chained - p_full) < 1e-9


@given(clifford_programs(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_measurement_collapse_consistency(program, seed):
    """A sampled measurement outcome always has nonzero pre-measurement
    probability, and afterwards the qubit is pinned to it."""
    n, ops = program
    _, tb = _evolve_both(n, ops)
    rng = np.random.default_rng(seed)
    pre = tb.copy(seed=0)
    bit = tb.tableau.measure(0, rng)
    # Marginal of qubit 0 = sum over all bitstrings with that bit.
    marginal = sum(
        pre.probability_of(_bits(i, n))
        for i in range(2**n)
        if _bits(i, n)[0] == bit
    )
    assert marginal > 1e-12
    assert tb.tableau.deterministic_outcome(0) == bit


_GATE_NAMES = ["h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap"]


@st.composite
def projected_programs(draw):
    """Clifford gates interleaved with mid-circuit projections.

    Projections lower the rank, so most candidates are exact zeros; the
    65-qubit width puts the last column in a second packed word.
    """
    n = draw(st.sampled_from([1, 3, 6, 65]))
    steps = []
    for _ in range(draw(st.integers(0, 40))):
        name = draw(st.sampled_from(_GATE_NAMES + ["project"]))
        a = draw(st.integers(0, n - 1))
        if name == "project":
            steps.append((name, (a,), draw(st.integers(0, 1))))
        elif name in ("cx", "cz", "swap"):
            if n < 2:
                continue
            b = draw(st.integers(0, n - 2))
            steps.append((name, (a, b + (b >= a)), None))
        else:
            steps.append((name, (a,), None))
    return n, steps


@given(projected_programs(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_candidate_oracle_matches_reference_after_projections(program, seed):
    """The packed oracle equals the unpacked reference's forced-measurement
    chain exactly, zeros included, for every support width down to 0."""
    n, steps = program
    packed = CliffordTableau(n)
    ref = UnpackedCliffordTableau(n)
    for name, axes, bit in steps:
        if name == "project":
            assert packed.project_measurement(axes[0], bit) == (
                ref.project_measurement(axes[0], bit)
            )
        else:
            getattr(packed, f"apply_{name}")(*axes)
            getattr(ref, f"apply_{name}")(*axes)
    rng = np.random.default_rng(seed)
    sample = packed.copy()
    inside = [sample.measure(a, rng) for a in range(n)]
    flipped = list(inside)
    flipped[int(rng.integers(n))] ^= 1
    front = [inside, flipped, [int(v) for v in rng.integers(0, 2, size=n)]]
    supports = ([], [0], sorted({n // 2, n - 1}), list(range(min(n, 3))))
    for support in supports:
        k = len(support)
        got = packed.candidate_probabilities_many(front, support)
        expected = np.empty((len(front), 2**k))
        for row, bits in enumerate(front):
            cand = list(bits)
            for idx in range(2**k):
                for pos, axis in enumerate(support):
                    cand[axis] = (idx >> (k - 1 - pos)) & 1
                expected[row, idx] = ref.probability_of(cand)
        np.testing.assert_array_equal(got, expected)
        assert got[0].any()
    assert packed.probability_of(inside) == ref.probability_of(inside) > 0
