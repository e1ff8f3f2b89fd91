"""Benchmark-regression gate: re-run headline series, compare to baselines.

The committed ``benchmarks/results/BENCH_*.json`` files are the perf
record of every PR's headline win.  This script keeps them honest: it
re-runs the warm-pool, fresh-ensemble, adaptive-scheduling,
program-cache, batched-oracle, batched-trajectory (noise throughout,
noise at the end, and tableau trajectories through a mid-circuit
measurement), result-plane-transport, streaming-latency, service-fair-share,
work-stealing, XEB-supremacy-batch and state-vector-kernel series and
compares each fresh
``speedup`` (or byte-reduction ratio) against the committed baseline with a *generous* tolerance —
the fresh ratio must stay at or above ``tolerance`` (default 0.5) times
the recorded win, so shared-runner noise passes but a genuinely lost
optimization (a speedup collapsing toward 1x) fails the gate.
Correctness columns (widths, point counts, variant labels) must match
exactly: a benchmark silently changing shape is a regression too.

Flow:

1. read the committed baselines into memory,
2. re-run the owning benchmark modules (``--skip-run`` reuses existing
   JSON, e.g. right after a manual benchmark run),
3. copy the fresh JSON into ``benchmarks/results/fresh/`` (CI uploads
   this directory as a workflow artifact),
4. restore the committed baselines in place (the working tree stays
   clean), and
5. compare, printing one verdict row per (file, row, column).

Exit status 0 iff every gated ratio holds.  Run from the repository
root::

    PYTHONPATH=src python benchmarks/check_regressions.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
REPO_ROOT = os.path.dirname(BENCH_DIR)

# Each gated series: the module that regenerates it, the columns whose
# fresh/baseline ratio is gated, and the columns that must match exactly
# (they identify rows and pin the benchmark's shape).
SERIES = {
    "BENCH_warm_pool_vs_cold_pool_sweep.json": {
        "module": "bench_pool_service.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("points", "reps"),
    },
    # A fresh circuit ensemble on the warm pool: eight new 64-circuit
    # ensembles on exactly 1 init (exact column), and the absolute floor
    # 0.67 on serial_s / pooled_s IS the acceptance bar "a fresh-ensemble
    # pooled call stays within 1.5x of serial run_batch".
    "BENCH_fresh_ensemble_pool_vs_serial.json": {
        "module": "bench_fresh_ensemble.py",
        "speedup_columns": ("ratio",),
        "exact_columns": ("circuits", "reps", "ensembles", "inits"),
        "min_ratio": 0.67,
    },
    "BENCH_adaptive_vs_fifo_mixed_depth_sweep.json": {
        "module": "bench_scheduler.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("points", "reps", "workers"),
    },
    "BENCH_run_sweep_cached_program_vs_per_point_compile_24_points_10_qubit.json": {
        "module": "bench_program_cache.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("variant",),
    },
    "BENCH_batched_vs_per_candidate_tableau_oracle_depth_20_8_reps.json": {
        "module": "bench_batched_oracles.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("width",),
    },
    # The shm-transport gate rides on bytes_ratio (deterministic — the
    # per-task result payload shrinking to one integer) rather than the
    # wall speedup, which is a small margin on a box where simulation
    # shares one core with the transport.
    "BENCH_shm_result_planes_vs_pickled_results.json": {
        "module": "bench_result_planes.py",
        "speedup_columns": ("bytes_ratio",),
        "exact_columns": ("points", "reps", "width", "equal"),
    },
    "BENCH_streaming_first_point_latency.json": {
        "module": "bench_result_planes.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("points", "reps"),
    },
    # The batched trajectory engine's headline win is an order of
    # magnitude, so its absolute floor sits well above the noise: the
    # batched-over-serial ratio must never drop below 3x.
    "BENCH_batched_vs_serial_trajectories.json": {
        "module": "bench_trajectory_batch.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("qubits", "depth", "reps"),
        "min_ratio": 3.0,
    },
    # Noise only before the measurement: every trajectory shares the
    # noiseless QAOA prefix, which the batched engine evolves on one row.
    # A tile of explicit copies measured 6x here; the floor sits well
    # above that and well below the shared-row ratio.
    "BENCH_batched_vs_serial_trajectories_noise_at_the_end.json": {
        "module": "bench_trajectory_batch.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("qubits", "edges", "reps"),
        "min_ratio": 20.0,
    },
    # Stacked tableaus through a mid-circuit measurement: each candidate
    # query is one X-block elimination per distinct row, not a chain of
    # forced measurements per trajectory.
    "BENCH_batched_vs_serial_tableau_trajectories_mid_circuit_measurement.json": {
        "module": "bench_trajectory_batch.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("qubits", "depth", "measured", "reps"),
        "min_ratio": 3.0,
    },
    # The service gate pins the job tier's whole contract: zero pool
    # re-inits for two interleaved circuits across four tenants,
    # streamed results bit-for-bit equal to direct run_sweep
    # (``equal``), and the fair-share latency bar — ``fairness_headroom``
    # is 3 * idle_p99 / loaded_p99, so the absolute floor of 1.0 IS the
    # acceptance criterion "light-tenant p99 under load <= 3x idle p99".
    "BENCH_service_fair_share.json": {
        "module": "bench_service.py",
        "speedup_columns": ("fairness_headroom",),
        "exact_columns": ("tenants", "distinct_keys", "reinits", "equal"),
        "min_ratio": 1.0,
    },
    # The straggler makespan is computed from measured durations over a
    # deterministic placement model, so it also carries an absolute
    # floor: the stealing win must never drop below 1.3x regardless of
    # how large the committed baseline is.
    "BENCH_work_stealing_vs_adaptive_straggler.json": {
        "module": "bench_work_stealing.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("points", "reps", "workers", "granularity"),
        "min_ratio": 1.3,
    },
    # The XEB supremacy batch pins the whole verification contract:
    # 64 distinct circuits on exactly 1 warm-pool init with streamed
    # estimates bit-for-bit equal to the blocking path (exact columns),
    # and the merge-rotations end-to-end sampling win with the
    # acceptance floor of 1.2x as the absolute minimum.
    "BENCH_xeb_supremacy_batch.json": {
        "module": "bench_xeb.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("circuits", "reps", "pool_inits", "streamed_equal"),
        "min_ratio": 1.2,
    },
    # The contiguous state-vector kernel against the old tensordot +
    # moveaxis kernel, one row per gate class on a 20-qubit state.
    "BENCH_sv_kernel_contiguous_vs_tensordot_20q.json": {
        "module": "bench_sv_kernels.py",
        "speedup_columns": ("speedup",),
        "exact_columns": ("gate", "qubits"),
    },
}


def load_series(path):
    with open(path) as f:
        return json.load(f)


def row_key(payload, row, exact_columns):
    index = {name: i for i, name in enumerate(payload["columns"])}
    missing = [c for c in exact_columns if c not in index]
    if missing:
        raise SystemExit(
            f"{payload['title']!r}: exact columns {missing} not in "
            f"{payload['columns']}"
        )
    return tuple(row[index[c]] for c in exact_columns)


def column_value(payload, row, column):
    return row[payload["columns"].index(column)]


def run_benchmarks(modules):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    # The modules' own timing asserts are advisory here — this gate owns
    # the ratio comparison, with the committed baseline as the yardstick.
    env["BGLS_RELAX_TIMING"] = "1"
    command = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        "-s",
        "--benchmark-disable",
    ] + [os.path.join(BENCH_DIR, module) for module in modules]
    print("$", " ".join(command), flush=True)
    result = subprocess.run(command, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        raise SystemExit(
            f"Benchmark rerun failed with exit code {result.returncode}"
        )


def compare(name, baseline, fresh, spec, tolerance):
    """Yield (ok, message) verdicts for one series."""
    exact = spec["exact_columns"]
    base_rows = {row_key(baseline, row, exact): row for row in baseline["rows"]}
    fresh_rows = {row_key(fresh, row, exact): row for row in fresh["rows"]}
    if set(base_rows) != set(fresh_rows):
        yield False, (
            f"{name}: row set changed — baseline {sorted(base_rows)} vs "
            f"fresh {sorted(fresh_rows)}"
        )
        return
    for key, base_row in base_rows.items():
        fresh_row = fresh_rows[key]
        for column in spec["speedup_columns"]:
            base_value = float(column_value(baseline, base_row, column))
            fresh_value = float(column_value(fresh, fresh_row, column))
            # A series may also pin an absolute floor (``min_ratio``) —
            # an acceptance bar the fresh ratio must clear even when the
            # committed baseline is far above it.
            floor = max(
                tolerance * base_value, float(spec.get("min_ratio", 0.0))
            )
            ok = fresh_value >= floor
            yield ok, (
                f"{name} {key} {column}: fresh {fresh_value:.3f}x vs "
                f"baseline {base_value:.3f}x (floor {floor:.3f}x) "
                f"{'ok' if ok else 'REGRESSION'}"
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="Fresh speedup must be >= tolerance x baseline (default 0.5)",
    )
    parser.add_argument(
        "--skip-run",
        action="store_true",
        help="Compare existing results JSON instead of re-running",
    )
    parser.add_argument(
        "--fresh-dir",
        default=os.path.join(RESULTS_DIR, "fresh"),
        help="Where fresh JSON is copied for artifact upload",
    )
    args = parser.parse_args(argv)

    # Snapshot every committed series, not just the gated ones: the
    # benchmark modules regenerate sibling series too, and this gate must
    # leave the whole results directory as it found it.
    originals = {}
    for name in sorted(os.listdir(RESULTS_DIR)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            with open(os.path.join(RESULTS_DIR, name)) as f:
                originals[name] = f.read()
    baselines = {}
    for name in SERIES:
        if name not in originals:
            raise SystemExit(
                f"Missing committed baseline: {os.path.join(RESULTS_DIR, name)}"
            )
        baselines[name] = json.loads(originals[name])

    fresh = {}
    try:
        if not args.skip_run:
            modules = sorted({spec["module"] for spec in SERIES.values()})
            run_benchmarks(modules)
        os.makedirs(args.fresh_dir, exist_ok=True)
        for name in SERIES:
            path = os.path.join(RESULTS_DIR, name)
            fresh[name] = load_series(path)
            shutil.copy(path, os.path.join(args.fresh_dir, name))
    finally:
        if not args.skip_run:
            # Leave the committed baselines untouched in the working tree
            # even when the rerun fails or is interrupted mid-way.
            for name, content in originals.items():
                with open(os.path.join(RESULTS_DIR, name), "w") as f:
                    f.write(content)

    failures = 0
    for name, spec in SERIES.items():
        for ok, message in compare(
            name, baselines[name], fresh[name], spec, args.tolerance
        ):
            print(("PASS " if ok else "FAIL ") + message)
            failures += 0 if ok else 1
    if failures:
        print(f"\n{failures} benchmark regression(s) detected")
        return 1
    print("\nAll benchmark series within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
