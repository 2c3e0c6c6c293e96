"""The one thread pool of the package and its two entry points, blocks and run.

The local factorizations and solves of the one-level preconditioner and
every Gram-Schmidt projection of GMRES, single steps and blocks alike, run
on it.  blocks cuts work into fixed blocks of at most BLOCK_BYTES, whatever
the worker count; run plans tasks into LOCAL_SOLVE_WORKERS shares, runs them
and returns the results in task order.  So results do not depend on the
worker count.  Both read BLOCK_BYTES and LOCAL_SOLVE_WORKERS from this
module on every call, so setting them here reaches all later work.
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


def blocks(count: int, item_bytes: int) -> list:
    """range(count) cut into slices of at most BLOCK_BYTES of items of
    item_bytes each (one item where a single one is larger), whatever the
    worker count."""
    size = max(1, BLOCK_BYTES // item_bytes)
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


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


def run(task, work) -> list:
    """[task(t) for t in range(len(work))], task t expected to cost work[t].

    The tasks are planned into LOCAL_SOLVE_WORKERS shares; the caller runs the
    first share and the pool the others.  Returns when every share has
    finished, raising the first error in share order.  No task may call run:
    the pool's threads would wait on shares queued behind them."""
    results = [None] * len(work)

    def run_share(share):
        for t in share:
            results[t] = task(t)

    first, *rest = _plan(work, LOCAL_SOLVE_WORKERS)
    futures = [_POOL.submit(run_share, share) for share in rest]
    try:
        run_share(first)
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return results
