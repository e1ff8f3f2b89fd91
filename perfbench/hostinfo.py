"""Host description and process/segment accounting for benchmark runs.

Everything here reads the environment as found; nothing is set.  In
particular no BLAS/OpenMP thread variable is touched: the thread
settings are reported, not chosen.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path
from typing import Dict, Iterable, List, Set

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def _git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _blas_threads() -> List[str]:
    """Each loaded BLAS library with the thread count it reports."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return ["unknown (no /proc/self/maps)"]
    libs = sorted(
        {
            line.split()[-1]
            for line in maps
            if line.endswith(".so") or ".so." in line
            if any(tag in line.lower() for tag in ("blas", "mkl", "blis"))
        }
    )
    found = []
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _THREAD_QUERIES:
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append(f"{os.path.basename(lib)}: {fn()} threads")
                break
    return found or ["no BLAS thread query found"]


def host_block(root: Path, executor) -> Dict[str, str]:
    """Host facts printed with every run."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in _THREAD_VARS)
    affinity = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    )
    return {
        "cpu_count": f"{os.cpu_count()} (affinity {affinity})",
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "; ".join(_blas_threads()),
        "blas_env": env,
        "pool_start_method": str(executor.start_method),
        "pool_result_transport": str(executor.result_transport),
        "git_sha": _git_sha(root),
    }


# ----------------------------------------------------------------------
# processes, memory and shared-memory segments
# ----------------------------------------------------------------------

def descendants() -> List[int]:
    """PIDs of every live descendant of this process."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry.name))
    found, todo = [], [os.getpid()]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def _peak_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Peak resident set of this process plus ``pids``, in MiB."""
    total = _peak_kb(os.getpid()) + sum(_peak_kb(pid) for pid in pids)
    return total / 1024.0


def shm_segments() -> Set[str]:
    """Every entry in ``/dev/shm`` (segments and named semaphores)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def result_segments() -> Set[str]:
    """Shared-memory segments, without the named semaphores a live pool's
    queues and locks hold (those are checked after the pool shuts down)."""
    return {name for name in shm_segments() if not name.startswith("sem.")}


def infrastructure_pids() -> Set[int]:
    """Helper processes multiprocessing keeps for the whole interpreter:
    the forkserver and the resource tracker.  They are not pool workers
    and are stopped by :func:`stop_infrastructure` at exit."""
    from multiprocessing import forkserver, resource_tracker

    pids = {
        getattr(forkserver._forkserver, "_forkserver_pid", None),
        getattr(resource_tracker._resource_tracker, "_pid", None),
    }
    return {pid for pid in pids if pid is not None}


def stop_infrastructure() -> None:
    """Stop the forkserver and resource tracker and wait for both."""
    from multiprocessing import forkserver, resource_tracker

    for server in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(server, "_stop", None)
        if stop is not None:
            stop()
