"""Exporters: JSONL event stream, Chrome ``trace_event``, flat stats.

All three formats are deterministic functions of the recorder's state:
spans are emitted in (begin, span_id) order, instruments in sorted-name
order, and every JSON document is dumped with sorted keys -- so a traced
run can be golden-mastered byte for byte.

* :func:`to_jsonl` -- one self-describing JSON object per line
  (``{"type": "span" | "event" | "instrument", ...}``), the archival
  format the regression suite diffs.
* :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  ``trace_event`` JSON object format; load the file in
  ``chrome://tracing`` (or https://ui.perfetto.dev) to see the span
  tree as a flame chart, one row per track, timestamps in simulated
  cycles (rendered as microseconds).
* :func:`stats_rows` -- a flat (headers, rows) table of span totals and
  instrument values for CLI display.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .recorder import TraceRecorder

__all__ = [
    "chrome_trace",
    "stats_rows",
    "to_jsonl",
    "write_chrome_trace",
]


def _sorted_spans(recorder: TraceRecorder):
    return sorted(recorder.spans, key=lambda s: (s.begin, s.span_id))


def to_jsonl(recorder: TraceRecorder) -> str:
    """The full recorder state as deterministic JSON lines."""
    lines: List[str] = []
    for span in _sorted_spans(recorder):
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "track": span.track,
                    "begin": span.begin,
                    "end": span.end if span.end is not None else span.begin,
                    "duration": span.duration,
                    "attrs": span.attrs,
                },
                sort_keys=True,
            )
        )
    for event in recorder.events:
        lines.append(
            json.dumps(
                {
                    "type": "event",
                    "name": event.name,
                    "track": event.track,
                    "at": event.at,
                    "attrs": event.attrs,
                },
                sort_keys=True,
            )
        )
    for name, payload in recorder.instruments.snapshot().items():
        record = {"type": "instrument", "name": name}
        record.update(payload)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


def chrome_trace(recorder: TraceRecorder, pid: int = 0) -> Dict[str, object]:
    """The recorder as a Chrome ``trace_event`` JSON object.

    Tracks map to thread lanes (with ``thread_name`` metadata), spans to
    complete (``ph: "X"``) events, point events to instants, and each
    counter to one final-value counter sample.  Timestamps are simulated
    cycles emitted in the format's microsecond field.
    """
    tracks = recorder.tracks()
    tid_of = {track: tid for tid, track in enumerate(tracks)}
    events: List[Dict[str, object]] = []
    for track in tracks:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid_of[track],
                "args": {"name": track},
            }
        )
    for span in _sorted_spans(recorder):
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.track,
                "pid": pid,
                "tid": tid_of[span.track],
                "ts": span.begin,
                "dur": span.duration,
                "args": dict(sorted(span.attrs.items())),
            }
        )
    for event in recorder.events:
        events.append(
            {
                "ph": "i",
                "s": "t",
                "name": event.name,
                "cat": event.track,
                "pid": pid,
                "tid": tid_of.get(event.track, len(tracks)),
                "ts": event.at,
                "args": dict(sorted(event.attrs.items())),
            }
        )
    final_ts = recorder.clock.now
    for name, counter in sorted(recorder.instruments.counters.items()):
        events.append(
            {
                "ph": "C",
                "name": name,
                "pid": pid,
                "tid": 0,
                "ts": final_ts,
                "args": {"value": counter.value},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated-cycles",
            "source": "repro.obs",
        },
    }


def write_chrome_trace(
    recorder: TraceRecorder, path: str, pid: int = 0
) -> None:
    """Serialize :func:`chrome_trace` to ``path`` (sorted keys)."""
    with open(path, "w") as handle:
        handle.write(json.dumps(chrome_trace(recorder, pid=pid), sort_keys=True))


def stats_rows(
    recorder: TraceRecorder,
) -> Tuple[List[str], List[List[object]]]:
    """Flat summary table: per-track span totals, then instruments."""
    headers = ["kind", "name", "count", "value"]
    rows: List[List[object]] = []
    for track in recorder.tracks():
        for name, (count, total) in recorder.span_totals(track).items():
            rows.append(
                ["span", f"{track}/{name}", count, f"{total:,.1f}"]
            )
    snapshot = recorder.instruments.snapshot()
    for name, payload in snapshot.items():
        kind = payload["kind"]
        if kind == "counter":
            rows.append(["counter", name, "", f"{payload['value']:,.1f}"])
        elif kind == "gauge":
            rows.append(
                ["gauge", name, payload["updates"], f"{payload['value']:,.4f}"]
            )
        else:
            rows.append(
                [
                    "histogram",
                    name,
                    payload["count"],
                    f"mean={payload['total'] / payload['count']:,.1f}"
                    if payload["count"]
                    else "mean=0",
                ]
            )
    return headers, rows
