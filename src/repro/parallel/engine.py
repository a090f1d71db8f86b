"""Worker-count resolution and a plain ordered process-pool map.

Trials run on the warm pool (:mod:`repro.parallel.pool`); what remains here
is the shared ``workers=`` knob handling — affinity-aware core counts and the
once-per-process oversubscription warning — plus :func:`ordered_map`, which
Table 1, Figure 3, the ablation and batch scoring use to fan a handful of
independent items out over a short-lived process pool.  ``workers <= 1`` is a plain
in-process loop, the default everywhere: parallelism is strictly opt-in.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


def available_workers() -> int:
    """Number of CPUs this process may actually use (affinity-aware).

    Container CPU quotas and ``taskset`` pin processes to a subset of the
    machine's cores; ``os.cpu_count()`` ignores that, so the engine asks the
    scheduler (``os.sched_getaffinity``) where the call exists.  This is the
    ``usable_cores`` figure every diagnostics / benchmark document reports.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


#: One oversubscription warning per process — benchmark sweeps resolve the
#: knob hundreds of times and a warning per resolution would drown the run.
_oversubscription_warned = False


def reset_oversubscription_warning() -> None:
    """Re-arm the once-per-process oversubscription warning (tests)."""
    global _oversubscription_warned
    _oversubscription_warned = False


def _warn_if_oversubscribed(resolved: int) -> None:
    global _oversubscription_warned
    if _oversubscription_warned:
        return
    usable = available_workers()
    if resolved > usable:
        _oversubscription_warned = True
        warnings.warn(
            f"requested {resolved} workers but only {usable} usable core(s) are "
            "available to this process (CPU-affinity aware); the pool will "
            "oversubscribe and parallel execution may be slower than serial",
            RuntimeWarning,
            stacklevel=3,
        )


def resolve_worker_count(workers: int | None, warn: bool = True) -> int:
    """Normalise a ``workers=`` knob value.

    ``None`` or ``0`` means "use the usable hardware" — affinity-aware, so a
    process pinned to 2 of 64 cores gets 2 workers, not 64.  Negative values
    are rejected; values above the item count are clamped later, at pool
    creation, not here.  Explicitly requesting more workers than there are
    usable cores is honoured (oversubscription is occasionally wanted) but
    warned about once per process, because it silently produced the
    historical 0.52x "speedup": the benchmark ran 4 workers on 1 core.
    """
    if workers is None or workers == 0:
        return available_workers()
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if warn:
        _warn_if_oversubscribed(workers)
    return workers


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``.

    Fork-started workers inherit the parent's imported modules and caches,
    so pool start-up is cheapest; spawn (the only option on Windows, the
    default on macOS) pays a one-time interpreter boot per worker but is
    immune to fork-safety hazards in user extensions.  Results never differ.
    """
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def ordered_map(
    function: Callable[[Item], Result], items: Iterable[Item], workers: int | None = 1
) -> list[Result]:
    """Apply ``function`` to every item, returning results in input order.

    Serial when ``workers <= 1`` or there is at most one item; otherwise the
    items go one per task to a fresh process pool of ``min(workers, items)``
    processes, so ``function`` must be picklable (module-level).  The first
    exception raised by any item propagates to the caller.
    """
    items = list(items)
    workers = resolve_worker_count(workers)
    if workers <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    context = multiprocessing.get_context(default_start_method())
    with ProcessPoolExecutor(max_workers=min(workers, len(items)), mp_context=context) as pool:
        return list(pool.map(function, items))
