"""The one thread pool of the package, its planner and its fork-join.

The local factorizations and solves of the one-level preconditioner and
every Gram-Schmidt projection of GMRES, single steps and blocks alike, run
on it.  Work is cut into fixed blocks of at most BLOCK_BYTES, whatever the
worker count, planned into LOCAL_SOLVE_WORKERS shares and run by
_fork_join, so results do not depend on the worker count.  Callers read
LOCAL_SOLVE_WORKERS and BLOCK_BYTES from this module when they plan, so
setting them here reaches every plan made afterwards.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

# Threads the pool's work may run on: the process's CPU affinity set.  The
# pool starts its threads on first use.
LOCAL_SOLVE_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_POOL = ThreadPoolExecutor(max(LOCAL_SOLVE_WORKERS - 1, 1), thread_name_prefix="helmdd-pool")

# Bytes of one block of work: the right-hand sides of one local solve call, or
# one column chunk of an 8-row GMRES block, whose columns a single step sweeps
# too.  Blocks are cut to this size whatever the worker count, so each call
# gets the same columns on any number of threads.  Small blocks keep the pool
# threads' temporaries small, and glibc's per-thread heaps (which keep freed
# memory) small with them.
BLOCK_BYTES = 1 << 20


def _plan(work, workers: int) -> list:
    """Shares of task indices: each task, largest work first, goes to the
    least-loaded share (Graham's LPT rule, SIAM J. Appl. Math. 17, 1969), so
    no share exceeds sum(work) / workers by more than the largest task.  Empty
    shares are dropped."""
    shares = [[] for _ in range(workers)]
    loads = [0] * workers
    for t in sorted(range(len(work)), key=lambda t: -work[t]):
        s = loads.index(min(loads))
        shares[s].append(t)
        loads[s] += work[t]
    return [share for share in shares if share]


def _fork_join(run, shares) -> None:
    """run(share) for every share: the caller runs the first, the pool the
    others.  Returns when all have finished and raises the first error; the
    pool's tasks submit none, so it never nests."""
    futures = [_POOL.submit(run, share) for share in shares[1:]]
    try:
        run(shares[0])
    finally:
        wait(futures)
        for future in futures:
            future.result()
