"""Exporters for the observability subsystem.

Two formats, both deterministic given the same registry contents:

* :func:`prometheus_text` — Prometheus text exposition (``# TYPE`` headers,
  ``_bucket``/``_sum``/``_count`` histogram series) served by the estimate
  server's ``GET /metrics`` endpoint and pinned by a golden test.
* :func:`dump_json` / :func:`to_json_dict` — a JSON document bundling the
  recent span trees with a metrics summary, written by the service smoke's
  ``--trace-out`` flag and uploaded as a CI artifact.

Plus :func:`stage_totals`, the small helper the benchmark drivers use to
turn the ``repro_stage_seconds`` histogram into per-stage second sums for
the tracked BENCH breakdowns.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Dict

from repro.obs import trace
from repro.obs.metrics import STAGE_SECONDS, MetricsRegistry

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    return _NAME_SANITIZER.sub("_", name)


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labels, extra: str = "") -> str:
    parts = [f'{_sanitize(label)}="{value}"' for label, value in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def prometheus_text(*registries: MetricsRegistry) -> str:
    """Prometheus text exposition of one or more registries, merged.

    Multiple registries (the gated global one plus a session's always-on
    stats registry) are folded into a scratch registry first so overlapping
    series combine with the standard merge semantics.
    """
    if len(registries) == 1:
        combined = registries[0]
    else:
        combined = MetricsRegistry()
        for source in registries:
            combined.merge(source.snapshot())

    lines: list[str] = []
    seen_types: set[str] = set()

    for (name, labels), value in combined.iter_counters():
        metric = _sanitize(name)
        if metric not in seen_types:
            lines.append(f"# TYPE {metric} counter")
            seen_types.add(metric)
        lines.append(f"{metric}{_render_labels(labels)} {_format_value(value)}")

    for (name, labels), value in combined.iter_gauges():
        metric = _sanitize(name)
        if metric not in seen_types:
            lines.append(f"# TYPE {metric} gauge")
            seen_types.add(metric)
        lines.append(f"{metric}{_render_labels(labels)} {_format_value(value)}")

    for (name, labels), histogram in combined.iter_histograms():
        metric = _sanitize(name)
        if metric not in seen_types:
            lines.append(f"# TYPE {metric} histogram")
            seen_types.add(metric)
        cumulative = 0
        for bound, count in zip(histogram.buckets, histogram.counts):
            cumulative += count
            le_label = 'le="' + _format_value(bound) + '"'
            lines.append(
                f"{metric}_bucket{_render_labels(labels, le_label)} {cumulative}"
            )
        cumulative += histogram.counts[-1]
        inf_label = 'le="+Inf"'
        lines.append(
            f"{metric}_bucket{_render_labels(labels, inf_label)} {cumulative}"
        )
        lines.append(f"{metric}_sum{_render_labels(labels)} {repr(histogram.total)}")
        lines.append(f"{metric}_count{_render_labels(labels)} {histogram.count}")

    return "\n".join(lines) + "\n"


def to_json_dict(registry: MetricsRegistry) -> dict:
    """Traces + metrics as one JSON-ready document."""
    return {
        "traces": [span.to_dict() for span in trace.recent_traces()],
        "metrics": registry.as_dict(),
    }


def dump_json(path: "str | pathlib.Path", registry: MetricsRegistry) -> pathlib.Path:
    """Write the trace/metrics document to ``path`` (service smoke artifact)."""
    target = pathlib.Path(path)
    target.write_text(json.dumps(to_json_dict(registry), indent=2, sort_keys=True) + "\n")
    return target


def stage_totals(registry: MetricsRegistry) -> Dict[str, float]:
    """Summed seconds per ``stage`` label of the stage-seconds histogram."""
    totals: Dict[str, float] = {}
    for labels, seconds in registry.histogram_sums(STAGE_SECONDS).items():
        stage = dict(labels).get("stage", "unknown")
        totals[stage] = totals.get(stage, 0.0) + seconds
    return dict(sorted(totals.items()))


def group_stage_totals(totals: Dict[str, float]) -> dict:
    """Collapse per-stage seconds into the paper's learning/design/sampling axes.

    Scoring rides with learning (both are the classifier side of the split);
    pilot and stage-II draws are sampling.  Returns seconds and shares, the
    shape embedded in the tracked BENCH breakdowns.
    """
    groups = {"learning": 0.0, "design": 0.0, "sampling": 0.0, "other": 0.0}
    for stage, seconds in totals.items():
        if "learning" in stage or "scoring" in stage:
            groups["learning"] += seconds
        elif "design" in stage:
            groups["design"] += seconds
        elif stage in ("lss.pilot", "lss.stage2", "lws.sampling"):
            groups["sampling"] += seconds
        else:
            groups["other"] += seconds
    total = sum(groups.values())
    return {
        "seconds": {name: round(value, 6) for name, value in groups.items()},
        "shares": {
            name: (round(value / total, 4) if total > 0 else 0.0)
            for name, value in groups.items()
        },
        "total_seconds": round(total, 6),
    }
