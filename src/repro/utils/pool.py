"""Process-pool start-method selection for the campaign's scenario pool.

The campaign runner (:mod:`repro.core.campaign`, ``repro campaign
--workers``) fans whole scenarios out over
:class:`concurrent.futures.ProcessPoolExecutor`; it is the package's
only process pool.  Fork is the preferred start method — workers
inherit loaded modules, so start-up is cheap and nothing needs to
pickle — but it does not exist everywhere (Windows has no fork; macOS
defaults to spawn for good reasons).  Hard-coding
``get_context("fork")`` therefore crashes ``--workers > 1`` on those
platforms.

:func:`pool_context` centralises the policy: use fork when the platform
offers it, otherwise fall back to the platform's default start method —
but only after verifying that everything the pool must ship to workers
(the worker callable, initializer, init arguments, job payloads)
actually pickles, because spawn/forkserver workers receive state by
pickling rather than by inheritance.  An unpicklable closure fails
immediately with a clear message instead of dying later inside the pool
with an opaque ``PicklingError`` traceback.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Any, Iterable

__all__ = ["pool_context"]


def pool_context(*, require_picklable: Iterable[Any] = ()):
    """Best available multiprocessing context for a process pool.

    Args:
        require_picklable: Objects the pool would have to pickle under a
            non-fork start method (worker callables, initializer
            arguments, job payloads).  Only checked when fork is
            unavailable — fork inherits them instead.

    Returns:
        A multiprocessing context: fork where available, otherwise the
        platform default.

    Raises:
        RuntimeError: If fork is unavailable and one of the required
            objects cannot be pickled (so no start method can run the
            pool).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        pass  # platform without fork: fall back below
    context = multiprocessing.get_context()
    for obj in require_picklable:
        try:
            pickle.dumps(obj)
        except Exception as exc:
            raise RuntimeError(
                f"process pools need the start method "
                f"{context.get_start_method()!r} on this platform (no "
                f"fork), which ships work to workers by pickling — but "
                f"{obj!r} is not picklable; run with workers <= 1 "
                f"instead") from exc
    return context
