"""Span recording for the traced run.

A span is one call into a public function of the program, recorded from the
benchmark's side: name, start, end, parent span and request id.  Spans stay
in memory and are written out when the run ends.  Untraced runs use
``NO_TRACE``, whose ``call`` only forwards, so both runs execute the same
request code.
"""

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class NoTrace:
    request = None

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


NO_TRACE = NoTrace()


class Tracer:
    """Records one span per call made through ``call``."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, request]
        self.request = None
        self._stack = []

    def call(self, name, fn, *args):
        span = [len(self.spans), name, 0.0, 0.0,
                self._stack[-1] if self._stack else None, self.request]
        self.spans.append(span)
        self._stack.append(span[0])
        span[2] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def self_times(self):
        """Span id -> duration minus the time its child spans cover."""
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def by_name(self):
        """Span name -> list of (duration, self time)."""
        own = self.self_times()
        out = {}
        for s in self.spans:
            out.setdefault(s[1], []).append((s[3] - s[2], own[s[0]]))
        return out

    def write(self, path):
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, request in self.spans:
                f.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "self_s": own[sid],
                }) + "\n")


def layer_stats(durations):
    """busy_s, calls and ms_p50 of a list of (duration, self) pairs."""
    if not durations:
        return {"busy_s": 0.0, "calls": 0, "ms_p50": 0.0, "self_s": 0.0}
    return {
        "busy_s": sum(d for d, _ in durations),
        "calls": len(durations),
        "ms_p50": statistics.median(d for d, _ in durations) * 1e3,
        "self_s": sum(s for _, s in durations),
    }


@contextmanager
def traced_methods(tracer, classes):
    """Route ``SymToeplitz.matvec`` and ``Matrix.mul`` through ``tracer``.

    The program calls these methods from inside its own functions (the
    residual check calls ``matvec``), so they are wrapped on the class for
    the duration of the traced run and restored afterwards.  ``Matrix.mul``
    spans are split by the shape of the right operand.
    """
    SymToeplitz, Matrix = classes
    matvec, mul = SymToeplitz.matvec, Matrix.mul

    def traced_matvec(self, xs):
        return tracer.call("matrices.SymToeplitz.matvec", matvec, self, xs)

    def traced_mul(self, other):
        shape = "matvec" if getattr(other, "cols", 0) == 1 else "matmul"
        return tracer.call("matrices.Matrix.mul." + shape, mul, self, other)

    SymToeplitz.matvec, Matrix.mul = traced_matvec, traced_mul
    try:
        yield
    finally:
        SymToeplitz.matvec, Matrix.mul = matvec, mul
