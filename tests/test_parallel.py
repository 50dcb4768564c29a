"""run_in_blocks: 7 rows in blocks of 2, 2 and 3 rows, or in one process."""

import os
import signal
from unittest import mock

import numpy as np
import pytest

from kpcaig import parallel

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing")


def square_roots(lo, hi):
    """Rows lo..hi-1 of a 7 x 2 table whose row i is (i, sqrt(i))."""
    i = np.arange(lo, hi, dtype=np.float64)
    return np.stack([i, np.sqrt(i)], axis=1)


def run_blocks(job, forked, blas=False):
    """run_in_blocks(7, ...) over three CPUs or in one process, with os.fork
    counted; every call must leave no child behind."""
    try:
        with mock.patch("os.sched_getaffinity", return_value={0, 1, 2}, create=True), \
                mock.patch("os.fork", wraps=os.fork) as fork:
            return parallel.run_in_blocks(7, 3 if forked else 1, (2,), job, blas=blas)
    finally:
        assert fork.call_count == (2 if forked else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_run_in_blocks_forked_matches_one_process_bitwise():
    one, forked = run_blocks(square_roots, False), run_blocks(square_roots, True)
    assert one.shape == forked.shape == (7, 2)
    assert one.tobytes() == forked.tobytes() == square_roots(0, 7).tobytes()


@needs_fork
@pytest.mark.parametrize("forked", [False, True])
def test_run_in_blocks_reraises_a_later_blocks_error_here(forked):
    parent, here = os.getpid(), []

    def job(lo, hi):
        if os.getpid() == parent:
            here.append((lo, hi))
        if hi == 7:
            raise ZeroDivisionError("planted failure on row 6")
        return square_roots(lo, hi)

    with pytest.raises(ZeroDivisionError, match="^planted failure on row 6$"):
        run_blocks(job, forked)
    # forked, the child's block runs again in this process after the children are reaped
    assert here == ([(0, 2), (4, 7)] if forked else [(0, 7)])


@needs_fork
@pytest.mark.parametrize("forked", [False, True])
@pytest.mark.parametrize("bad_row", [0, 6], ids=["first-block", "last-block"])
def test_run_in_blocks_rejects_a_block_of_the_wrong_shape(forked, bad_row):
    def job(lo, hi):
        rows = square_roots(lo, hi)
        return rows[:, :1] if lo <= bad_row < hi else rows

    with pytest.raises(ValueError, match=r"has shape \(\d, 1\), expected \(\d, 2\)"):
        run_blocks(job, forked)


@needs_fork
def test_run_in_blocks_reruns_every_unfinished_block_here_at_the_callers_threads(monkeypatch):
    # one fake OpenBLAS pool at 4 threads stands in for the real ones
    threads = [4]
    monkeypatch.setattr(parallel, "_openblas_pools",
                        lambda: [(lambda: threads[0], lambda k: threads.__setitem__(0, k))])
    parent, seen = os.getpid(), []

    def dying(lo, hi):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        seen.append(threads[0])
        return square_roots(lo, hi)

    want = square_roots(0, 7).tobytes()
    assert run_blocks(dying, True, blas=True).tobytes() == want
    with mock.patch("os.fork", side_effect=BlockingIOError(11, "no process")):
        assert run_blocks(dying, True, blas=True).tobytes() == want
    # each call: the first block at one thread, then the two blocks no child
    # finished, after the restore
    assert seen == [1, 4, 4] * 2 and threads == [4]
