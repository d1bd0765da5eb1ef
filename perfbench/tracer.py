"""Span tracer for the benchmark's traced pass, built entirely outside the
program: it rebinds tspmeta's public functions to timing wrappers.

`from .x import y` copies a function into every module that imports it, so a
wrapper is installed at every attribute of every loaded tspmeta module that
holds the original function object (for example `instance.cycle_length` is
also `pso.cycle_length` and `baselines.cycle_length`, and `tour_length`
reaches it through `instance`). `uninstall` restores the originals.

Run, step and local-search calls become spans: one record each, with an id,
the enclosing span's id and the id of the run span (benchmark job) they
belong to. Hot leaf functions (about a million `sa_accept` calls per SA run)
are aggregated per enclosing span into calls, total and self time, so memory
grows with the number of spans, not with the number of calls. A function's
self time is its duration minus the time spent in wrapped callees.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# Functions recorded as individual spans; everything else is aggregated.
SPAN_FUNCTIONS = (
    "pso.run",
    "pso.step",
    "baselines.run_ga",
    "baselines.run_sa",
    "localsearch.two_opt",
    "localsearch.three_opt",
)
LEAF_FUNCTIONS = (
    "instance.cycle_length",
    "instance.build_distance_matrix",
    "instance.canonicalize",
    "instance.brute_force_optimal",
    "tsplib.packaged_instance",
    "pso.swap_difference",
    "pso.apply_swaps",
    "pso.velocity_update",
    "baselines.order_crossover",
    "baselines.swap_mutation",
    "baselines.sa_accept",
)
FUNCTIONS = SPAN_FUNCTIONS + LEAF_FUNCTIONS


def _improved(args, out) -> int:
    return int(tuple(out) != tuple(args[0]))


# Per-call numerator of each layer's useful-work ratio (divided by calls).
EXTRAS = {
    "localsearch.two_opt": _improved,
    "localsearch.three_opt": _improved,
    "pso.swap_difference": lambda args, out: len(out),
    "baselines.sa_accept": lambda args, out: int(out),
}

_ID, _PARENT, _RUN, _NAME, _START, _END, _SELF, _EXTRA = range(8)


class Tracer:
    def __init__(self):
        # span record: [id, parent id, run id, name, start ns, end ns, self ns, extra]
        self.spans: list[list] = [[0, None, None, "root", 0, 0, 0, 0]]
        # (span id, function) -> [calls, total ns, self ns, extra]
        self.leaves: dict[tuple[int, str], list[int]] = {}
        self._frames: list[list[int]] = [[0]]  # child ns of each open call
        self._span = 0
        self._run = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tspmeta" or name.startswith("tspmeta."))]
        for qualified in FUNCTIONS:
            module_name, attr = qualified.rsplit(".", 1)
            original = getattr(sys.modules["tspmeta." + module_name], attr)
            extra = EXTRAS.get(qualified)
            if qualified in SPAN_FUNCTIONS:
                wrapper = self._span_wrapper(qualified, original, extra)
            else:
                wrapper = self._leaf_wrapper(qualified, original, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._saved.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [len(self.spans), self._span, self._run, name, 0, 0, 0, 0]
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, run: bool = False):
        """A span owned by the benchmark: set-up, or one run (job)."""
        record = self._open(name)
        parent_span, parent_run = self._span, self._run
        self._span = record[_ID]
        if run:
            self._run = record[_RUN] = record[_ID]
        frame = [0]
        self._frames.append(frame)
        record[_START] = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._frames.pop()
            self._frames[-1][0] += end - record[_START]
            record[_END], record[_SELF] = end, end - record[_START] - frame[0]
            self._span, self._run = parent_span, parent_run

    def _span_wrapper(self, name, fn, extra):
        frames = self._frames

        def wrapper(*args, **kwargs):
            record = self._open(name)
            parent_span = self._span
            self._span = record[_ID]
            frame = [0]
            frames.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                frames.pop()
                frames[-1][0] += end - start
                self._span = parent_span
                record[_START], record[_END], record[_SELF] = start, end, end - start - frame[0]
            if extra is not None:
                record[_EXTRA] = extra(args, out)
            return out

        return wrapper

    def _leaf_wrapper(self, name, fn, extra):
        frames, leaves = self._frames, self.leaves

        def wrapper(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                frames.pop()
                frames[-1][0] += elapsed
            key = (self._span, name)
            agg = leaves.get(key)
            if agg is None:
                agg = leaves[key] = [0, 0, 0, 0]
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - frame[0]
            if extra is not None:
                agg[3] += extra(args, out)
            return out

        return wrapper

    # -- results --------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """Function name -> [calls, total ns, self ns, extra], over all spans."""
        out = {name: [0, 0, 0, 0] for name in FUNCTIONS}
        for record in self.spans[1:]:
            agg = out.setdefault(record[_NAME], [0, 0, 0, 0])
            agg[0] += 1
            agg[1] += record[_END] - record[_START]
            agg[2] += record[_SELF]
            agg[3] += record[_EXTRA]
        for (_, name), (calls, total, self_ns, extra) in self.leaves.items():
            agg = out[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_ns
            agg[3] += extra
        return out

    def write(self, path) -> None:
        doc = {
            "span_fields": ["id", "parent", "run", "name", "start_ns", "end_ns", "self_ns", "extra"],
            "spans": self.spans[1:],
            "leaf_fields": ["span", "name", "calls", "total_ns", "self_ns", "extra"],
            "leaves": [[span, name, *agg] for (span, name), agg in self.leaves.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
