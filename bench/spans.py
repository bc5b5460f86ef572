"""In-memory span tracer that wraps library functions from outside.

A span is one call of a wrapped function: a name of the form
``<layer>.<what>``, start and end on the ``perf_counter`` clock (the run
converts them to the clock of ``clock.py`` before it sums them), the span
that was open when it started (its parent), and integer counts attached
by an observer.  Spans stay in memory until the run writes them out.

Wrappers replace a module attribute, so they take effect exactly where a
caller looks the function up through that attribute; ``restore`` puts
every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        span.update(attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open."""
        return any(s["name"] == name for s in self._stack)

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``name`` is a string or a function of the call's arguments.
        ``observe(span, args, result)`` runs inside the span after a
        successful call and may add counts or open child spans.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(span, args, result)
                return result
            finally:
                self.close(span)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - child_time[s["id"]] for s in spans]


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time, self time and summed counts."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        row = out[span["name"]]
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own
        for key, value in span["counts"].items():
            row[key] += value
    return out
