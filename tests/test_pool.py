import threading
import time

import pytest

from helmdd import pool

UNEVEN = [5, 1, 9, 2, 7, 3, 3, 8, 1]


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_run_returns_the_results_in_task_order(monkeypatch, workers):
    # the plan puts the largest task first and spreads the others over the shares
    monkeypatch.setattr(pool, "LOCAL_SOLVE_WORKERS", workers)
    results = pool.run(lambda t: (t, threading.current_thread().name), UNEVEN)
    assert [t for t, _ in results] == list(range(len(UNEVEN)))
    names = {name for _, name in results}
    if workers == 1:
        assert names == {threading.current_thread().name}
    assert len(names) <= workers


@pytest.mark.parametrize("failing", [0, 1])  # task 0 is the caller's share, task 1 a pool share
def test_run_raises_only_after_every_share_has_finished(monkeypatch, failing):
    # three shares of one task each: the failing task raises at once, the others
    # finish later, the pool's last one after the caller's
    monkeypatch.setattr(pool, "LOCAL_SOLVE_WORKERS", 3)
    finished = set()

    def task(t):
        if t == failing:
            raise RuntimeError(f"task {t}")
        time.sleep(0.05 * (t + 1))
        finished.add(t)

    with pytest.raises(RuntimeError, match=f"task {failing}"):
        pool.run(task, [1, 1, 1])
    assert finished == {0, 1, 2} - {failing}
