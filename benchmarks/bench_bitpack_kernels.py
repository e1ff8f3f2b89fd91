"""Micro-benchmark: packed vs unpacked stabilizer kernels.

The production engines store their GF(2) matrices as ``uint64`` words
(:mod:`repro.states.bitpack`); the pre-packing implementations are
retained in ``tests/reference_engines.py``.  This module times the kernels
the BGLS hot loop leans on — measurement collapse (the batched
``_rowsum_many`` pass), probability queries (the flat-stabilizer
membership test), and batched candidate enumeration — on identical
workloads for both paths.

Honest accounting: single-column *gate* updates are overhead-bound and
roughly break even below a few hundred qubits (both paths are ~10 NumPy
calls on small arrays); the word-parallel wins live in the row-times-row
kernels and the batched query paths, which is where the assertions bite.
The printed/JSON series record actual speedups per width so the perf
trajectory is tracked across PRs.
"""

import os
import sys

import numpy as np

from repro.states import bitpack as bp
from repro.states.chform import StabilizerChForm
from repro.states.tableau import CliffordTableau

from conftest import print_series, wall_time

# The unpacked engines are test oracles and live with the tests.
sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tests"))
from reference_engines import UnpackedCliffordTableau, UnpackedStabilizerChForm  # noqa: E402

_ONE_QUBIT = ["h", "s", "sdg", "x", "y", "z"]
_TWO_QUBIT = ["cx", "cz"]


def _gate_stream(n, length, rng):
    ops = []
    for _ in range(length):
        if n >= 2 and rng.random() < 0.5:
            name = _TWO_QUBIT[int(rng.integers(len(_TWO_QUBIT)))]
            a, b = rng.choice(n, size=2, replace=False)
            ops.append((name, (int(a), int(b))))
        else:
            name = _ONE_QUBIT[int(rng.integers(len(_ONE_QUBIT)))]
            ops.append((name, (int(rng.integers(n)),)))
    return ops


def _apply_stream(engine, ops):
    for name, qs in ops:
        getattr(engine, f"apply_{name}")(*qs)


def _scrambled_pair(n, depth, seed):
    """(packed, unpacked) tableaus evolved through the same gate stream."""
    ops = _gate_stream(n, depth, np.random.default_rng(seed))
    packed = CliffordTableau(n)
    unpacked = UnpackedCliffordTableau(n)
    _apply_stream(packed, ops)
    _apply_stream(unpacked, ops)
    return packed, unpacked


def _dense_pair(n, seed):
    """(packed, unpacked) tableaus holding identical dense random bits.

    Rowsum is plain GF(2)/phase arithmetic, valid for arbitrary row
    contents, so a random-filled tableau isolates the kernel itself from
    workload-dependent sparsity (a lightly entangled state only ever hands
    the kernel a handful of rows).
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(2 * n + 1, n)).astype(np.uint8)
    z = rng.integers(0, 2, size=(2 * n + 1, n)).astype(np.uint8)
    r = rng.integers(0, 2, size=2 * n + 1).astype(np.uint8)
    packed = CliffordTableau(n)
    packed.xw = bp.pack_rows(x)
    packed.zw = bp.pack_rows(z)
    packed.r = r.copy()
    unpacked = UnpackedCliffordTableau(n)
    unpacked.x, unpacked.z, unpacked.r = x.copy(), z.copy(), r.copy()
    return packed, unpacked


def test_batched_rowsum_kernel(benchmark):
    """One 2-D rowsum pass vs the per-row Python loop, on dense rows.

    This is the measurement-collapse hot kernel (`_collapse` multiplies
    the pivot into every anticommuting row); dense random rows give the
    kernel the work profile of a genuinely scrambled wide state.
    """
    widths = [64, 128, 256]
    rows = []
    speedups = {}
    for n in widths:
        targets = np.arange(1, 2 * n + 1)

        def run_packed():
            t, _ = _dense_pair(n, seed=n)
            t._rowsum_many(targets, 0)
            return t

        def run_unpacked():
            _, t = _dense_pair(n, seed=n)
            for h in targets:
                t._rowsum(int(h), 0)
            return t

        got, want = run_packed(), run_unpacked()
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.z, want.z)
        np.testing.assert_array_equal(got.r, want.r)
        # Pre-build fresh tableaus so setup cost never enters the timing.
        packed_pool = [run_packed().copy() for _ in range(5)]
        unpacked_pool = [run_unpacked().copy() for _ in range(5)]
        t_packed = wall_time(
            lambda: packed_pool.pop()._rowsum_many(targets, 0), repeats=5
        )

        def unpacked_once():
            t = unpacked_pool.pop()
            for h in targets:
                t._rowsum(int(h), 0)

        t_unpacked = wall_time(unpacked_once, repeats=5)
        speedups[n] = t_unpacked / t_packed
        rows.append((n, t_unpacked, t_packed, t_unpacked / t_packed))
    print_series(
        "Bitpack - batched rowsum kernel (dense rows, pivot into all)",
        ["width", "unpacked_sec", "packed_sec", "speedup"],
        rows,
    )
    assert speedups[256] > 4.0

    packed, _ = _dense_pair(128, seed=3)
    targets = np.arange(1, 257)
    benchmark(lambda: packed.copy()._rowsum_many(targets, 0))


def test_tableau_measure_all_workload(benchmark):
    """Measure-all on a lightly entangled state: report-only series.

    With shallow entanglement the kernels only ever see a few rows, so
    both paths are NumPy-call-overhead-bound; the series documents that
    the packed path stays within noise of the unpacked one there (the
    structural wins are in `test_batched_rowsum_kernel` and the sampler
    benchmarks).
    """
    widths = [32, 64, 128]
    rows = []
    for n in widths:
        packed, unpacked = _scrambled_pair(n, 4 * n, seed=n)

        def measure_all(template):
            t = template.copy()
            rng = np.random.default_rng(1)
            return [t.measure(a, rng) for a in range(n)]

        assert measure_all(packed) == measure_all(unpacked)
        t_packed = wall_time(lambda: measure_all(packed), repeats=3)
        t_unpacked = wall_time(lambda: measure_all(unpacked), repeats=3)
        rows.append((n, t_unpacked, t_packed, t_unpacked / t_packed))
    print_series(
        "Bitpack - tableau measure-all (lightly entangled, report-only)",
        ["width", "unpacked_sec", "packed_sec", "speedup"],
        rows,
    )

    packed, _ = _scrambled_pair(64, 256, seed=0)
    benchmark(
        lambda: [packed.copy().measure(a, np.random.default_rng(1)) for a in range(64)]
    )


def test_tableau_candidate_probabilities(benchmark):
    """Batched candidate queries vs 2^k independent probability chains."""
    n = 48
    packed, unpacked = _scrambled_pair(n, 4 * n, seed=5)
    bits = [packed.copy().measure(a, np.random.default_rng(6)) for a in range(n)]
    support = [3, 11]

    def batched():
        return packed.candidate_probabilities_many([bits], support)[0]

    def chained():
        out = np.empty(4)
        cand = list(bits)
        for idx in range(4):
            cand[support[0]] = (idx >> 1) & 1
            cand[support[1]] = idx & 1
            out[idx] = unpacked.probability_of(cand)
        return out

    np.testing.assert_allclose(batched(), chained(), atol=1e-12)
    t_batched = wall_time(batched, repeats=5)
    t_chained = wall_time(chained, repeats=5)
    print_series(
        "Bitpack - tableau candidate probabilities (48 qubits, k=2)",
        ["variant", "seconds"],
        [("batched_packed", t_batched), ("chained_unpacked", t_chained)],
    )
    assert t_batched < t_chained
    benchmark(batched)


def test_chform_probability_queries(benchmark):
    """Flat-stabilizer membership test vs unpacked amplitude accumulation."""
    widths = [16, 64, 128]
    depth = 60
    queries = 40
    rows = []
    speedups = {}
    for n in widths:
        rng = np.random.default_rng(n + 1)
        ops = _gate_stream(n, depth, rng)
        packed = StabilizerChForm(n)
        unpacked = UnpackedStabilizerChForm(n)
        _apply_stream(packed, ops)
        _apply_stream(unpacked, ops)
        bitstrings = rng.integers(0, 2, size=(queries, n))

        def run(form):
            return [form.probability_of(list(b)) for b in bitstrings]

        assert np.allclose(run(packed), run(unpacked))
        t_packed = wall_time(lambda: run(packed), repeats=3)
        t_unpacked = wall_time(lambda: run(unpacked), repeats=3)
        speedups[n] = t_unpacked / t_packed
        rows.append((n, t_unpacked, t_packed, t_unpacked / t_packed))
    print_series(
        "Bitpack - CH form 40 probability queries (depth 60)",
        ["width", "unpacked_sec", "packed_sec", "speedup"],
        rows,
    )
    assert speedups[128] > 2.0

    packed = StabilizerChForm(64)
    _apply_stream(packed, _gate_stream(64, depth, np.random.default_rng(2)))
    batch = np.random.default_rng(3).integers(0, 2, size=(256, 64))
    benchmark(lambda: packed.probabilities_of_many(batch))


def test_chform_gate_stream(benchmark):
    """Gate application parity check: packed must stay within 2.5x of the
    unpacked path at small widths (overhead-bound) — regression guard, not
    a claimed win."""
    n, depth = 32, 200
    ops = _gate_stream(n, depth, np.random.default_rng(7))
    t_packed = wall_time(lambda: _apply_stream(StabilizerChForm(n), ops), repeats=3)
    t_unpacked = wall_time(
        lambda: _apply_stream(UnpackedStabilizerChForm(n), ops), repeats=3
    )
    print_series(
        "Bitpack - CH form gate stream (32 qubits, depth 200)",
        ["variant", "seconds"],
        [("packed", t_packed), ("unpacked", t_unpacked)],
    )
    assert t_packed < t_unpacked * 2.5
    benchmark(lambda: _apply_stream(StabilizerChForm(n), ops))
