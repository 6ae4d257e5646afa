"""Span tracing around the library's public functions.

A :class:`Tracer` replaces a function with a recording wrapper at every
place a caller looks it up (a module attribute, an imported name, or a
class attribute), and puts the original back on :meth:`Tracer.uninstall`.
Each call becomes one span: name, start, end, parent span, the operation
(request or training sample) it belongs to, the matmul FLOPs charged while
it ran, and optional attributes such as rows or bytes. Spans stay in
memory until :meth:`Tracer.write_jsonl`.

FLOPs come from the library's own meter: every charge passes through
``FlopMeter.add``, which the tracer counts, so a span's FLOPs are the
delta of the meters' totals across the call.
"""

from __future__ import annotations

import json
import time

NAME, START, END, PARENT, OP, FLOPS, ATTRS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self.flops = 0
        self.instances = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- registration -----------------------------------------------------

    def wrap(self, owner, attr: str, name, attrs=None) -> None:
        """Trace ``owner.attr``. ``name`` is a string or a function of
        (args, kwargs) giving one; ``attrs(args, kwargs, result)`` returns a
        dict stored on the span."""
        raw = vars(owner)[attr]  # what uninstall puts back, exactly
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args, kwargs),
                    time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, tracer.flops, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[FLOPS] = tracer.flops - span[FLOPS]
                tracer._stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        self._patches.append((owner, attr, raw, traced))

    def count_flops(self, meter_cls) -> None:
        """Count every FLOP charged to any ``meter_cls`` instance."""
        original = meter_cls.add
        tracer = self

        def add(meter, bucket, flops):
            tracer.flops += flops
            return original(meter, bucket, flops)

        self._patches.append((meter_cls, "add", original, add))

    def count_instances(self, cls) -> None:
        """Count constructions of ``cls`` (no span per instance)."""
        original = cls.__init__
        tracer = self

        def init(obj, *args, **kwargs):
            tracer.instances += 1
            return original(obj, *args, **kwargs)

        self._patches.append((cls, "__init__", original, init))

    # -- lifetime -----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def write_jsonl(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (s, dur) in enumerate(zip(self.spans, self_times(self.spans))):
                rec = {"id": i, "name": s[NAME], "parent": s[PARENT], "op": s[OP],
                       "start_s": s[START] - origin, "end_s": s[END] - origin,
                       "self_s": dur, "flops": s[FLOPS]}
                if s[ATTRS]:
                    rec.update(s[ATTRS])
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    One thread records the spans, so children of a span never overlap
    each other and lie inside their parent's interval.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def totals_by_name(spans, own, keep) -> dict[str, dict]:
    """Per span name, over the spans ``keep`` accepts: calls, self and
    inclusive seconds, FLOPs, and the sum of every numeric attribute.
    ``own`` holds :func:`self_times` of all ``spans``."""
    out: dict[str, dict] = {}
    for s, own_s in zip(spans, own):
        if not keep(s):
            continue
        t = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "flops": 0})
        t["calls"] += 1
        t["self_s"] += own_s
        t["total_s"] += s[END] - s[START]
        t["flops"] += s[FLOPS]
        for key, value in (s[ATTRS] or {}).items():
            t[key] = t.get(key, 0) + value
    return out
