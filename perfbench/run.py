"""Repository benchmark: one closed-loop client calling the sampler.

Usage (from the repository root)::

    python3 perfbench/run.py --workload front --seed 1 --seconds 15 --trace 0

One client thread makes calls back to back; every call's inputs come from
``--seed`` and the call index, so the same seed replays the same inputs.
Each run:

1. times ``import repro`` once, then sets the workload up ``SETUPS``
   times (construct simulator/executor + one untimed call) and reports
   ``setup_s`` = import + median set-up;
2. makes timed calls until their summed duration reaches ``--seconds``;
3. checks every call's outputs against exact references, outside the
   timed region, and counts leaked shared-memory segments and child
   processes as failures.

``--trace 1`` splits the budget: an untraced half, then a replay of the
same calls with per-layer wrappers installed (``layers.py``).  Traced
outputs must equal untraced outputs bit for bit.  It prints the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
MIN_CALLS = 3
# Longest AF_UNIX socket path multiprocessing's forkserver can bind,
# minus the "pymp-XXXXXXXX/listener-XXXXXXXX" it appends to the temp dir.
_MAX_TEMPDIR = 70


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _use_local_tempdir() -> None:
    """Keep multiprocessing's temp files (forkserver socket) in the checkout."""
    local = ROOT / ".bench_tmp"
    if len(str(local)) <= _MAX_TEMPDIR:
        local.mkdir(exist_ok=True)
        tempfile.tempdir = str(local)


# ----------------------------------------------------------------------
# calls and phases
# ----------------------------------------------------------------------

class Call:
    """One timed call: its inputs, outputs and timings."""

    def __init__(self, index, inp):
        self.index = index
        self.inp = inp
        self.results = None
        self.seconds = 0.0
        self.first_s = 0.0
        self.error = None
        self.leaked = 0
        self.digest = None


def _one_call(workload, session, inp, tracer=None):
    """Make one call; returns (results, seconds, seconds to first result)."""
    results = []
    first = None
    start = time.perf_counter()

    def body():
        nonlocal first
        stream = workload.call(session, inp)
        while True:
            try:
                if tracer is None:
                    res = next(stream)
                else:
                    res = tracer.timed("stream", next, stream)
            except StopIteration:
                return
            if first is None:
                first = time.perf_counter() - start
            results.append(res)

    if tracer is None:
        body()
    else:
        tracer.timed("call", body)
    elapsed = time.perf_counter() - start
    return results, elapsed, first if first is not None else elapsed


def _clear_program_cache() -> None:
    """Start every set-up cold, as a user's first call would."""
    from repro.sampler import program

    clear = getattr(program, "clear_program_cache", None)
    if clear is not None:
        clear()


def _set_up(workload):
    """Construct the session and make the untimed first call."""
    _clear_program_cache()
    start = time.perf_counter()
    session = workload.open()
    _one_call(workload, session, workload.make_input(0))
    return session, time.perf_counter() - start


class Phase:
    """Timed calls on one session, with leak and memory accounting."""

    def __init__(self, workload, session, hostinfo, tracer=None):
        self.workload = workload
        self.session = session
        self.hostinfo = hostinfo
        self.tracer = tracer
        self.calls = []
        self.peak_rss_mb = 0.0
        self._shm = hostinfo.result_segments()

    def run(self, budget_s=None, count=None):
        spent = 0.0
        index = 1
        while True:
            if count is not None and len(self.calls) >= count:
                break
            if count is None and spent >= budget_s and len(self.calls) >= MIN_CALLS:
                break
            call = Call(index, self.workload.make_input(index))
            try:
                call.results, call.seconds, call.first_s = _one_call(
                    self.workload, self.session, call.inp, self.tracer
                )
                call.digest = self.workload.output_digest(call.results)
            except Exception as exc:  # a failed call is counted, not fatal
                traceback.print_exc()
                call.error = f"{type(exc).__name__}: {exc}"
            spent += call.seconds
            # Outside the timed region: result segments must be gone, and
            # memory is sampled while the pool's workers are alive.
            shm = self.hostinfo.result_segments()
            call.leaked = len(shm - self._shm)
            self._shm |= shm
            self.peak_rss_mb = max(
                self.peak_rss_mb,
                self.hostinfo.peak_rss_mb(self.hostinfo.descendants()),
            )
            self.calls.append(call)
            index += 1
        return self

    def close(self):
        self.workload.close(self.session)


def _tail(values):
    """The highest order statistic with at least 10 samples beyond it.

    Below 21 samples that statistic would fall under the median, so no
    tail can be resolved and the median is reported, labelled as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 21:
        rank = n - 11
        return ordered[rank], f"p{100.0 * rank / (n - 1):.0f} of {n} calls (10 beyond)"
    return statistics.median(ordered), f"p50 of {n} calls (too few to resolve a tail)"


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "samples_per_s": "1/s",
    "first_result_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "front.self_s": "s",
    "front.rows": "count",
    "oracle.s": "s",
    "oracle.calls": "count",
    "oracle.rows": "count",
    "plan.apply_s": "s",
    "plan.apply_calls": "count",
    "kernel.s": "s",
    "kernel.calls": "count",
    "kernel.bytes": "bytes",
    "compile.s": "s",
    "compile.calls": "count",
    "compile.miss_ratio": "ratio",
    "specialize.s": "s",
    "specialize.calls": "count",
    "traj.s": "s",
    "traj.apply_s": "s",
    "traj.kraus_s": "s",
    "traj.candidates_s": "s",
    "traj.tiles": "count",
    "pool.inits": "count",
    "pool.reuse_ratio": "ratio",
    "pool.dispatch_s": "s",
    "pool.wait_s": "s",
    "pool.result_bytes": "bytes",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
}

# Spans whose self time is attributed to a reported layer.
_ATTRIBUTED = (
    "run", "compile", "specialize", "plan.apply", "kernel", "oracle",
    "traj", "traj.tile", "traj.apply", "traj.kraus", "traj.candidates",
    "pool.dispatch",
)

# Metric -> spans it needs (a missing span marks the metric missing).
_NEEDS = {
    "front.self_s": ("run",), "front.rows": ("run", "oracle"),
    "oracle.s": ("oracle",), "oracle.calls": ("oracle",),
    "oracle.rows": ("oracle",),
    "plan.apply_s": ("plan.apply",), "plan.apply_calls": ("plan.apply",),
    "kernel.s": ("kernel",), "kernel.calls": ("kernel",),
    "kernel.bytes": ("kernel",),
    "compile.s": ("compile",), "compile.calls": ("compile",),
    "compile.miss_ratio": ("compile",),
    "specialize.s": ("specialize",), "specialize.calls": ("specialize",),
    "traj.s": ("traj",), "traj.apply_s": ("traj.apply",),
    "traj.kraus_s": ("traj.kraus",), "traj.candidates_s": ("traj.candidates",),
    "traj.tiles": ("traj.tile",),
    "pool.dispatch_s": ("pool.dispatch",),
}


def _program_counters(workload, session):
    """The program's own counters, or None where they no longer exist."""
    from repro.sampler import program

    info = getattr(program, "program_cache_info", None)
    executor = getattr(session, "executor", None)
    manager = getattr(executor, "pool_manager", None) if workload.pooled else None
    stats = getattr(manager, "stats", None)
    return {
        "cache": dict(info()) if info is not None else None,
        "pool": dict(stats) if isinstance(stats, dict) else None,
        "result_bytes": getattr(executor, "last_result_bytes", None),
    }


def _counter_support(executor):
    """Why a program counter the traced run reads is missing, if it is."""
    from repro.sampler import PoolManager, program

    missing = {}
    if not hasattr(program, "program_cache_info"):
        missing["compile.miss_ratio"] = "repro.sampler.program.program_cache_info not found"
    if not isinstance(getattr(PoolManager(), "stats", None), dict):
        reason = "PoolManager.stats not found"
        missing["pool.inits"] = missing["pool.reuse_ratio"] = reason
    if not hasattr(executor, "measure_result_bytes"):
        missing["pool.result_bytes"] = "ProcessPoolExecutor.measure_result_bytes not found"
    return missing


def _layer_metrics(tracer, installed, before, after, traced, untraced, missing, pooled):
    n = len(traced)
    attributed = sum(tracer.self_time(name) for name in _ATTRIBUTED)

    def self_s(*names):
        return sum(tracer.self_time(name) for name in names) / n

    def calls(name):
        return tracer.calls(name) / n

    def count(name):
        return tracer.counts.get(name, 0) / n

    values = {
        "front.self_s": self_s("run"),
        "front.rows": count("front.rows"),
        "oracle.s": self_s("oracle"),
        "oracle.calls": calls("oracle"),
        "oracle.rows": count("oracle.rows"),
        "plan.apply_s": self_s("plan.apply"),
        "plan.apply_calls": calls("plan.apply"),
        "kernel.s": self_s("kernel"),
        "kernel.calls": calls("kernel"),
        "kernel.bytes": count("kernel.bytes"),
        "compile.s": self_s("compile"),
        "compile.calls": calls("compile"),
        "specialize.s": self_s("specialize"),
        "specialize.calls": calls("specialize"),
        "traj.s": self_s("traj", "traj.tile"),
        "traj.apply_s": self_s("traj.apply"),
        "traj.kraus_s": self_s("traj.kraus"),
        "traj.candidates_s": self_s("traj.candidates"),
        "traj.tiles": calls("traj.tile"),
        "pool.dispatch_s": self_s("pool.dispatch"),
        "pool.wait_s": 0.0,
        "trace_overhead": statistics.median(c.seconds for c in traced)
        / statistics.median(c.seconds for c in untraced),
    }
    if before["cache"] is not None:
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        values["compile.miss_ratio"] = misses / (hits + misses) if hits + misses else 0.0
    values["pool.inits"] = values["pool.reuse_ratio"] = 0.0
    if before["pool"] is not None:
        inits = after["pool"]["inits"] - before["pool"]["inits"]
        reuses = after["pool"]["reuses"] - before["pool"]["reuses"]
        values["pool.inits"] = inits / n
        values["pool.reuse_ratio"] = reuses / (inits + reuses) if inits + reuses else 0.0
    values["pool.result_bytes"] = 0.0
    if after["result_bytes"] is not None:
        values["pool.result_bytes"] = after["result_bytes"] / n
    if pooled:
        # Work inside pool workers is invisible from the parent: the
        # time the parent spends waiting on the result stream stands in.
        values["pool.wait_s"] = self_s("stream")
        attributed += tracer.self_time("stream")
    values["unattributed_s"] = (sum(c.seconds for c in traced) - attributed) / n

    metrics = {}
    for name, unit in LAYER_UNITS.items():
        metric = {"value": values.get(name, 0.0), "unit": unit}
        reason = missing.get(name) or next(
            (installed.missing(s) for s in _NEEDS.get(name, ()) if installed.missing(s)),
            None,
        )
        if reason:
            metric["value"] = 0.0
            metric["missing"] = reason
        metrics[name] = metric
    return metrics


# ----------------------------------------------------------------------
# one workload, end to end
# ----------------------------------------------------------------------

def run_workload(workload, seconds, trace, import_s, setups=SETUPS, out=print):
    """Run one workload; returns the result object printed as JSON."""
    from perfbench import hostinfo, layers
    from perfbench.workloads import Z_LIMIT

    baseline_shm = hostinfo.shm_segments()
    setup_times = []
    session = None
    # A traced run reports no setup_s, so it sets up once.
    for _ in range(1 if trace else setups):
        if session is not None:
            workload.close(session)
        session, took = _set_up(workload)
        setup_times.append(took)

    phase = Phase(workload, session, hostinfo)
    try:
        phase.run(budget_s=seconds / 2 if trace else seconds)
    finally:
        phase.close()
    phases = [phase]

    if trace:
        executor = _host_executor()
        missing = _counter_support(executor)
        tracer = layers.Tracer()
        installed = layers.install(tracer)
        try:
            session, _ = _set_up(workload)
            executor = getattr(session, "executor", None)
            if executor is not None and hasattr(executor, "measure_result_bytes"):
                executor.measure_result_bytes = True
                executor.last_result_bytes = 0
            before = _program_counters(workload, session)
            tracer.reset()
            traced = Phase(workload, session, hostinfo, tracer)
            try:
                traced.run(count=len(phase.calls))
                after = _program_counters(workload, session)
            finally:
                traced.close()
        finally:
            installed.remove()
        phases.append(traced)

    # Correctness, outside every timed region.
    failures = []
    checks = []
    for call in phase.calls:
        if call.error is None:
            try:
                check = workload.check(call.inp, call.results)
            except Exception as exc:  # malformed output fails its check
                failures.append(f"call {call.index}: check raised {exc!r}")
            else:
                checks.append(check)
                if not check.ok:
                    failures.append(
                        f"call {call.index}: check failed (value {check.value}, z {check.z})"
                    )
        else:
            failures.append(f"call {call.index}: raised {call.error}")
        if call.leaked:
            failures.append(f"call {call.index}: {call.leaked} shared-memory segment(s) leaked")
    if trace:
        for plain, traced_call in zip(phase.calls, traced.calls):
            if traced_call.error is not None:
                failures.append(f"traced call {traced_call.index}: raised {traced_call.error}")
            elif traced_call.digest != plain.digest:
                failures.append(f"traced call {traced_call.index}: output differs from untraced")
            if traced_call.leaked:
                failures.append(f"traced call {traced_call.index}: segment(s) leaked")
    infra = hostinfo.infrastructure_pids()
    leaked_procs = [pid for pid in hostinfo.descendants() if pid not in infra]
    leaked_shm = hostinfo.shm_segments() - baseline_shm
    if leaked_procs:
        failures.append(f"{len(leaked_procs)} child process(es) alive after shutdown")
    if leaked_shm:
        failures.append(f"{len(leaked_shm)} shared-memory segment(s) left after shutdown")

    attempted = sum(len(p.calls) for p in phases)
    failed = min(attempted, len(failures))

    ok_calls = [c for c in phase.calls if c.error is None]
    call_s = [c.seconds for c in ok_calls] or [math.nan]
    tail, tail_label = _tail(call_s)
    setup_s = import_s + statistics.median(setup_times)
    out(f"workload: {workload.name}  seed {workload.seed}  "
        f"{'traced' if trace else 'untraced'}  {len(phase.calls)} timed calls")
    out(f"setup_s: import {import_s:.3f} s + median of {len(setup_times)} set-ups "
        f"{statistics.median(setup_times):.3f} s {[round(t, 3) for t in setup_times]}")
    out(f"call_tail_s: {tail_label}")
    if len(call_s) >= 2:
        q1, q2, q3 = statistics.quantiles(call_s, n=4)
        out(f"call_s quartiles: min {min(call_s):.4f} q1 {q1:.4f} median {q2:.4f} "
            f"q3 {q3:.4f} max {max(call_s):.4f}")
    if checks:
        worst = max(checks, key=lambda c: abs(c.z))
        out(f"check: value median {statistics.median(c.value for c in checks):.4f} "
            f"worst z {worst.z:.2f} (limit {Z_LIMIT}) over {len(checks)} calls")
    out(f"fail_ratio: {failed}/{attempted}")
    for line in failures:
        out(f"FAILED {line}")

    if trace:
        metrics = _layer_metrics(
            tracer, installed, before, after, traced.calls, phase.calls, missing,
            workload.pooled,
        )
        for name in sorted(tracer.spans):
            total, self_t, n = tracer.spans[name]
            out(f"span {name}: {n} calls, total {total:.4f} s, self {self_t:.4f} s")
    else:
        samples = workload.samples_per_call() * len(ok_calls)
        metrics = {
            "setup_s": setup_s,
            "call_p50_s": statistics.median(call_s),
            "call_tail_s": tail,
            "samples_per_s": samples / sum(call_s),
            "first_result_s": statistics.median(c.first_s for c in ok_calls)
            if ok_calls else math.nan,
            "peak_rss_mb": phase.peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    for name, metric in metrics.items():
        extra = f"  MISSING: {metric['missing']}" if "missing" in metric else ""
        out(f"metric {name}: {metric['value']:.6g} {metric['unit']}{extra}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _host_executor():
    """An unused executor, for the resolved default pool settings."""
    from repro.sampler import PoolManager, ProcessPoolExecutor

    return ProcessPoolExecutor(num_workers=2, pool_manager=PoolManager())


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = time.perf_counter()
    try:
        import repro  # noqa: F401  - the timed import
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    _use_local_tempdir()

    from perfbench import hostinfo
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    for key, value in hostinfo.host_block(ROOT, _host_executor()).items():
        print(f"host.{key}: {value}")
    workload = WORKLOADS[args.workload](args.seed)
    try:
        result = run_workload(workload, args.seconds, args.trace, import_s)
    finally:
        hostinfo.stop_infrastructure()
    stray = hostinfo.descendants()
    if stray:
        print(f"FAILED {len(stray)} process(es) alive at exit", flush=True)
        result["failed"] = min(result["attempted"], result["failed"] + len(stray))
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
