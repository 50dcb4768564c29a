"""One array computed in blocks of rows, the first in this process and each
later one in a forked child; the loader, the permutation baseline and the
selection curve use it.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np

# thread-count setters of OpenBLAS builds: numpy's and scipy's wheels, then plain
# builds; each has a getter of the same name with _get_
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _openblas_pools() -> list:
    """(get, set) thread-count functions of each OpenBLAS this process has loaded,
    found by file name in /proc/self/maps; empty without /proc or OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].rstrip("\n")
                            for line in fh if "openblas" in line})
    except OSError:
        return []
    pools = []
    for path in paths:
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter in _OPENBLAS_SETTERS:
            getter = setter.replace("_set_", "_get_")
            if hasattr(lib, setter) and hasattr(lib, getter):
                get, set_ = getattr(lib, getter), getattr(lib, setter)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((get, set_))
                break
    return pools


def _block(job, lo, hi, row_shape) -> np.ndarray:
    """job(lo, hi), which must have shape (hi - lo, *row_shape)."""
    out = job(lo, hi)
    if out.shape != (hi - lo, *row_shape):
        raise ValueError(f"block [{lo}, {hi}) has shape {out.shape}, "
                         f"expected {(hi - lo, *row_shape)}")
    return out


def _fork(job, lo, hi, out) -> int:
    """Fork a child that copies job's block [lo, hi) into out, exiting 0 only
    if it does; return its pid."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        out[...] = _block(job, lo, hi, out.shape[1:])
        code = 0
    finally:
        os._exit(code)  # no exception reaches the parent's code, no stdio buffer is flushed


def _reap(children, failed) -> None:
    """Wait for every (pid, lo, hi) in children, emptying it; add the (lo, hi) of
    each child that did not exit 0 to failed."""
    while children:
        pid, lo, hi = children[-1]
        _, status = os.waitpid(pid, 0)
        children.pop()
        if status:
            failed.append((lo, hi))


def run_in_blocks(n: int, limit: int, row_shape: tuple, job, blas: bool = False) -> np.ndarray:
    """The (n, *row_shape) array whose rows [lo, hi) are job(lo, hi), computed
    in contiguous blocks, one block per process.

    ``job(lo, hi)`` returns a new array of shape (hi - lo, *row_shape) or
    raises; any other shape raises ValueError. The number of processes is
    min(CPUs, n, limit), and 1 where os.fork is missing (Windows), while
    another Python thread runs, or, for a ``blas`` job, where no OpenBLAS
    is found (MKL, Accelerate, no /proc). This process runs the first
    block, and a forked child each later one, copying its rows into one
    float64 array in memory shared with this process; the first block's
    array then grows in place to take them. For a ``blas`` job every
    OpenBLAS runs one thread while the blocks run, set before the fork
    (OpenBLAS's fork handler then stops its pool, and no child starts one)
    and restored after, on every path.

    Every child is killed and reaped before this returns or raises, Ctrl-C
    included. Then each block that no child finished (its fork failed or it
    did not exit 0) runs again here, in order and at the restored thread
    counts, so its error is raised as one process would raise it.
    """
    import mmap

    forkable = hasattr(os, "fork") and threading.active_count() == 1
    pools = _openblas_pools() if blas and forkable else []
    k = 1
    if forkable and (pools or not blas):
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count() or 1
        k = max(1, min(cpus, n, limit))
    bounds = [n * j // k for j in range(k + 1)]
    first = bounds[1]
    shape = (n - first, *row_shape)
    rest = (np.empty(shape) if k == 1 else
            np.ndarray(shape, buffer=mmap.mmap(-1, 8 * int(np.prod(shape)))))
    counts = [get() for get, _ in pools]
    children, failed = [], []
    try:
        for _, set_threads in pools:
            set_threads(1)
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            try:
                children.append((_fork(job, lo, hi, rest[lo - first:hi - first]), lo, hi))
            except OSError:
                failed.append((lo, hi))
        out = _block(job, 0, first, row_shape)
        _reap(children, failed)
    finally:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        _reap(children, [])
        for (_, set_threads), count in zip(pools, counts):
            set_threads(count)
    # realloc grows the block in place or by remapping its pages, with no
    # second copy of what this process computed
    out.resize((n, *row_shape), refcheck=False)
    out[first:] = rest
    for lo, hi in sorted(failed):
        out[lo:hi] = _block(job, lo, hi, row_shape)
    return out
