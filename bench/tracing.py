"""Spans recorded from outside the package, kept in memory until exit.

A span is one call into a layer: its name, start, end and the index of the
span that was open when it began.  The benchmark opens spans around its own
calls into the edgepot modules; ``patch`` also replaces a name that a module
looks up at call time, so that calls made inside the package (the solve and
right-hand side inside a time step, the solves inside the condition
estimator) become spans too.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: spans cost one no-op context manager per call."""

    enabled = False

    def span(self, name):
        return nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, bytes]
        self.missing: list[str] = []
        self.solve_bytes = 0  # computed LU bytes read by one solve of the current factors
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str, work: int = 0):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, work])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_solve(self, fn):
        def traced(factors, rhs, trans="N"):
            name = "linsolve.solve_T" if trans == "T" else "linsolve.solve"
            with self.span(name, self.solve_bytes):
                return fn(factors, rhs, trans)

        return traced

    def patch(self, module, attr: str, wrapper) -> None:
        """Replace ``module.attr`` by ``wrapper(original)``; a missing name is reported."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, wrapper(original))
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def by_name(self) -> dict[str, list[tuple[float, float, int]]]:
        """name -> [(duration, self time, work)] where self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, work) in enumerate(self.spans):
            out.setdefault(name, []).append((end - start, end - start - child[i], work))
        return out

    def children_of(self, parent_name: str, child_names: tuple[str, ...]) -> int:
        """Number of spans named in child_names whose parent span is named parent_name."""
        return sum(
            1
            for name, _, _, parent, _ in self.spans
            if name in child_names and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "bytes"],
                    "missing": self.missing,
                    "spans": self.spans,
                },
                fh,
            )
