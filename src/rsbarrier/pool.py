"""One fork pool for independent tasks: spectral values or Monte Carlo blocks.

``map_tasks(fn, tasks, threads, *shared)`` returns ``[fn(*shared, t) for t
in tasks]`` in task order.  With ``threads`` > 1 the tasks run in a pool of
min(threads, tasks, cores) forked worker processes, made for this call
alone.  Fork, so that each worker inherits ``shared`` (a pricer and its kept
arrays, or a problem) without a pickle or a fresh import; only the tasks and
their results cross between processes.  With fewer than 2 workers, or where
the platform has no ``fork``, the tasks run one after another in the calling
process.  A worker's ``RsBarrierError`` arrives with its own type; a worker
that dies is an ``InternalError``.  No worker outlives the call.
"""

from __future__ import annotations

import functools
import os

from .errors import InternalError

__all__ = ["map_tasks"]

_shared: tuple = ()  # a worker's copy of the caller's arguments, set once per worker


def _start_worker(shared: tuple) -> None:
    global _shared
    _shared = shared


def _call(fn, task):
    return fn(*_shared, task)


def map_tasks(fn, tasks, threads: int, *shared) -> list:
    """``fn(*shared, task)`` for each task, in task order; ``fn`` must be a
    module-level function, since workers receive it by name."""
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here, not with the module: importing rsbarrier.cli is part
        # of every command's start-up, and the pool's modules cost about 35 ms
        # cold
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_start_worker, initargs=(shared,))
            try:
                return list(pool.map(functools.partial(_call, fn), tasks))
            except BrokenProcessPool as exc:
                raise InternalError(f"a worker process died: {exc}") from None
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
    return [fn(*shared, task) for task in tasks]
