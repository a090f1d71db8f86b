"""Span recording around the public entry points of each layer.

The traced run of ``run.py`` patches a fixed list of functions and methods
(``TARGETS``) with thin wrappers that record one span per call: name, layer,
start, end, parent span and request id.  Nothing inside ``src/`` is changed;
each name is patched where the calling code looks it up (for example
``repro.core.lss.dynpgm_design``, not only the defining module), so the
wrapper sits on the path the program really takes.

Spans live in memory.  Processes other than the benchmark's own write theirs
to ``<run dir>/spans-<pid>.jsonl``: warm-pool workers after each chunk, the
``serve.py`` server launcher at exit.  :func:`attribute` merges them and
turns the spans of a time window into per-layer self time (span minus
children), so that the layers plus the unexplained remainder add up to the
window's wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import resource
import threading
import time
from pathlib import Path

#: ``(module, attribute, layer)`` for every patched entry point.  A dotted
#: attribute is a method patched on its class.
TARGETS = (
    ("repro.service.session", "Session.sweep", "service.session"),
    ("repro.service.session", "Session.estimate", "service.session"),
    ("repro.core.lss", "LearnedStratifiedSampling.estimate_from_scores", "core.estimators"),
    ("repro.core.lws", "LearnedWeightedSampling.estimate", "core.estimators"),
    ("repro.core.lws", "LearnedWeightedSampling.estimate_from_scores", "core.estimators"),
    ("repro.core.lss", "dynpgm_design", "core.stratification"),
    ("repro.core.stratification.dynpgm", "candidate_boundary_cuts", "core.stratification"),
    ("repro.core.lss", "run_learning_phase", "learning"),
    ("repro.core.lws", "run_learning_phase", "learning"),
    ("repro.core.scores", "run_learning_phase", "learning"),
    ("repro.service.sweep", "learn_scores", "learning"),
    ("repro.learning.forest", "RandomForestClassifier.fit", "learning"),
    ("repro.learning.forest", "RandomForestClassifier.predict_scores", "learning"),
    ("repro.sampling.weighted", "pps_permutation", "sampling"),
    ("repro.sampling.stratified", "StratifiedSampling.estimate_from_samples", "sampling"),
    ("repro.query.counting", "CountingQuery.evaluate", "query.counting"),
    ("repro.query.counting", "CountingQuery.evaluate_batch", "query.counting"),
    ("repro.query.backends", "NumpyBackend.evaluate", "query.backends"),
    ("repro.query.backends", "NumpyBackend.evaluate_all", "query.backends"),
    ("repro.query.backends", "SqliteBackend.evaluate", "query.sql"),
    ("repro.query.backends", "SqliteBackend.evaluate_all", "query.sql"),
    ("repro.query.backends", "SqliteBackend.evaluate_layout", "query.sql"),
    ("repro.query.backends", "SqliteBackend.evaluate_permutation", "query.sql"),
    ("repro.parallel.pool", "WarmPool.run", "parallel.pool"),
    ("repro.parallel.pool", "_warm_execute_chunk", "parallel.pool"),
    ("repro.workloads.queries", "generate_neighbors_table", "datasets"),
    ("repro.workloads.queries", "calibrate_neighbor_threshold", "datasets"),
)

#: Span name of the client's HTTP call; server roots attach below it.
HTTP_SPAN = "http.request"
#: Span name of a warm-pool chunk in a worker; it attaches below the
#: parent's ``WarmPool.run`` span whose interval holds it.
CHUNK_SPAN = "_warm_execute_chunk"
POOL_RUN_SPAN = "WarmPool.run"


def _request_of(args: tuple, kwargs: dict):
    """Request id of a root call: the request's seed, when it names one."""
    seed = kwargs.get("seed")
    return int(seed) if isinstance(seed, int) else None


def _info_of(name: str, args: tuple, result) -> dict:
    """Per-call counts measured where the work happens."""
    if name.startswith("CountingQuery.evaluate"):
        return {"n": int(len(args[1]))}
    if name == "candidate_boundary_cuts":
        return {"candidates": int(result.size)}
    if name == CHUNK_SPAN:
        return {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    return {}


class Recorder:
    """In-memory span store of one process (re-armed in forked children)."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = Path(run_dir)
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.pid = os.getpid()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked worker inherits the parent's spans and open-span stack;
        # neither describes work done in the child.
        self.spans = []
        self._local = threading.local()
        self.pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str, layer: str, flush: bool = False):
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent, request = stack[-1]
            else:
                parent, request = None, _request_of(args, kwargs)
            span_id = next(recorder._ids)
            stack.append((span_id, request))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            recorder.spans.append({
                "pid": recorder.pid, "id": span_id, "parent": parent, "name": name,
                "layer": layer, "start": start, "end": end, "request": request,
                **_info_of(name, args, result),
            })
            if flush and not stack:
                recorder.flush()
            return result

        return wrapper

    def record(self, name: str, layer: str, request, start: float, end: float) -> None:
        """A root span timed by the caller (the benchmark's own HTTP calls)."""
        self.spans.append({
            "pid": self.pid, "id": next(self._ids), "parent": None, "name": name,
            "layer": layer, "start": start, "end": end, "request": request,
        })

    def flush(self) -> None:
        """Append this process's spans to its file in the run directory."""
        if not self.spans:
            return
        path = self.run_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


def install(run_dir: Path) -> Recorder:
    """Patch every entry point in ``TARGETS`` and return the recorder.

    Call it before a warm pool forks: workers inherit the patched modules.
    """
    recorder = Recorder(run_dir)
    for module_name, attribute, layer in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if path else getattr(owner, leaf)
        setattr(owner, leaf, recorder.wrap(original, attribute, layer, flush=leaf == CHUNK_SPAN))
    return recorder


def load_spans(recorder: Recorder) -> list[dict]:
    """This process's spans plus every span file other processes wrote."""
    spans = list(recorder.spans)
    for path in sorted(recorder.run_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def attribute(spans: list[dict], start: float, end: float, workers: int = 1) -> dict:
    """Per-layer self seconds of the spans inside ``[start, end]``.

    Cross-process roots are re-attached first: a server's root span goes
    below the client's HTTP span of the same request id, and a worker chunk
    below the ``WarmPool.run`` span that contains it.  Worker spans are
    scaled by ``1 / workers``: ``workers`` processes share the parent's
    blocked interval, so their self times, divided so, fill at most that
    interval and the rest of it stays with ``parallel.pool`` as idle or
    dispatch time.  Returns ``{"layers": {layer: seconds}, "other": seconds,
    "spans": [...]}`` where the spans carry ``self`` and ``scale``; layers
    without spans in the window are absent.
    """
    inside = [s for s in spans if s["start"] >= start and s["end"] <= end]
    by_key = {(s["pid"], s["id"]): s for s in inside}
    http_by_request = {s["request"]: s for s in inside if s["name"] == HTTP_SPAN}
    pool_runs = [s for s in inside if s["name"] == POOL_RUN_SPAN]
    children: dict = {}
    for span in inside:
        span["scale"] = 1.0
        parent_key = (span["pid"], span["parent"]) if span["parent"] is not None else None
        if parent_key is None:
            if span["name"] == CHUNK_SPAN:
                holder = next(
                    (p for p in pool_runs if p["start"] <= span["start"] <= p["end"]), None
                )
            elif span["name"] != HTTP_SPAN:
                holder = http_by_request.get(span["request"])
            else:
                holder = None
            parent_key = (holder["pid"], holder["id"]) if holder else None
        span["attached"] = parent_key
        if parent_key is not None and parent_key in by_key:
            children.setdefault(parent_key, []).append(span)
    if workers > 1:
        # Every span below a worker chunk belongs to the worker process.
        worker_pids = {s["pid"] for s in inside if s["name"] == CHUNK_SPAN}
        for span in inside:
            if span["pid"] in worker_pids:
                span["scale"] = 1.0 / workers
    layers: dict = {}
    for span in inside:
        own = (span["end"] - span["start"]) * span["scale"]
        below = sum(
            (c["end"] - c["start"]) * c["scale"]
            for c in children.get((span["pid"], span["id"]), ())
        )
        span["self"] = own - below
        layers[span["layer"]] = layers.get(span["layer"], 0.0) + span["self"]
    other = (end - start) - sum(layers.values())
    return {"layers": layers, "other": other, "spans": inside}
