"""Session-level hygiene for the warm-pool execution service.

The shared :class:`~repro.sampler.service.PoolManager` is shut down when
the test session ends, and — when ``BGLS_CHILD_AUDIT=1`` (set by the CI
pool-lifecycle job) — the session performs a leaked-process audit after
that teardown: any still-alive worker process is a lifecycle bug, not a
flake, and fails the run loudly.

``BGLS_SHM_AUDIT=1`` (same CI job) adds the shared-memory sibling: an
autouse per-test audit asserting that no result-plane segment allocated
by a test survives it, plus a session-finish sweep after the shared pool
goes down.

The audit has two layers:

* ``multiprocessing.active_children()`` — the authoritative worker
  check: every pool worker this process created is registered here under
  **every** start method (including forkserver, whose workers are OS
  children of the server process, not of pytest), and must be gone once
  the pools are shut down.
* a ``psutil`` sweep of the OS descendant tree (when psutil is
  installed) — defense in depth against processes multiprocessing does
  not track.  Multiprocessing's own long-lived infrastructure (the
  forkserver server and the resource tracker live until interpreter exit
  by design) is excluded by cmdline marker; since forked forkserver
  *workers* share the server's cmdline, that exclusion also covers them —
  they are intentionally left to the first layer, which sees them
  exactly.
"""

import multiprocessing
import os

import pytest


@pytest.fixture(autouse=True)
def _shm_segment_audit(request):
    """Per-test shared-memory leak audit, gated by ``BGLS_SHM_AUDIT=1``.

    Every result-plane segment must be unlinked by the time the test
    that allocated it finishes — including the poisoned-pool and
    abandoned-iterator (mid-iteration ``close()``) paths.  A segment
    still registered after a test is a lifecycle bug; it fails that test
    by name, and is force-unlinked so one leak cannot cascade into
    every later test.
    """
    if os.environ.get("BGLS_SHM_AUDIT") != "1":
        yield
        return
    from repro.sampler import result_planes

    leaked_before = result_planes.live_segment_names()
    yield
    leaked = result_planes.release_leaked_segments()
    if leaked and leaked != leaked_before:
        raise AssertionError(
            f"Test {request.node.nodeid} leaked shared-memory result "
            f"segments: {leaked}"
        )


def _audit_leaked_children():
    leaks = []
    for proc in multiprocessing.active_children():
        proc.join(timeout=10)
        if proc.is_alive():
            leaks.append(f"active_children: {proc!r}")
    try:
        import psutil
    except ImportError:
        return leaks
    benign = ("forkserver", "resource_tracker", "semaphore_tracker")
    for child in psutil.Process().children(recursive=True):
        try:
            cmdline = " ".join(child.cmdline())
        except psutil.Error:  # pragma: no cover - raced exit
            continue
        if any(marker in cmdline for marker in benign):
            continue
        if child.is_running() and child.status() != psutil.STATUS_ZOMBIE:
            leaks.append(f"os child pid={child.pid}: {cmdline!r}")
    return leaks


def pytest_sessionfinish(session, exitstatus):
    try:
        from repro.sampler.service import shutdown_shared_pool
    except ImportError:  # pragma: no cover - collection-time failures
        return
    shutdown_shared_pool()
    if os.environ.get("BGLS_SHM_AUDIT") == "1":
        from repro.sampler import result_planes

        leaked = result_planes.release_leaked_segments()
        if leaked:
            raise RuntimeError(
                "Leaked shared-memory result segments survived session "
                f"teardown: {leaked}"
            )
    if os.environ.get("BGLS_CHILD_AUDIT") != "1":
        return
    leaks = _audit_leaked_children()
    if leaks:
        raise RuntimeError(
            "Leaked worker processes survived session teardown:\n  "
            + "\n  ".join(leaks)
        )
