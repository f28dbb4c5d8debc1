"""In-memory span recorder for the benchmark's traced run.

A span has a name, a start, an end, the span that was open when it began
(its parent) and the round it belongs to. Spans are recorded around the
benchmark's own calls into each layer, and around the public callables
``train`` makes (patched into ``elball.trainer`` for the traced run only).
A span's self time is its duration minus the durations of its children;
children never overlap because the benchmark runs on one thread.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, round]
        self.round = 0
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.round])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self, round_id: int) -> dict[str, tuple[float, float, int]]:
        """name -> (total duration, total self time, calls) over one round."""
        out: dict[str, tuple[float, float, int]] = {}
        for (name, start, end, _, rnd), own in zip(self.spans, self.self_times()):
            if rnd == round_id:
                dur, self_t, n = out.get(name, (0.0, 0.0, 0))
                out[name] = (dur + end - start, self_t + own, n + 1)
        return out

    def misnested(self) -> int:
        """Spans that stick out of their parent's interval or have a negative self time.

        With none, the self times of the spans under a stage add up to the
        stage's traced time and each one is time spent in that layer alone.
        """
        bad = 0
        for (_, start, end, parent, _), own in zip(self.spans, self.self_times()):
            inside = parent < 0 or self.spans[parent][1] <= start <= end <= self.spans[parent][2]
            bad += not inside or own < 0
        return bad

    def write(self, path: Path) -> None:
        own = self.self_times()
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "round": r, "self": o}
            for (n, s, e, p, r), o in zip(self.spans, own)
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")
