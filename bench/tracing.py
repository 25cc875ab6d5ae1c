"""In-memory span tracer that wraps mrtensor's public functions.

Spans are (id, parent id, name, start, end) tuples kept in a list and
written out once, after the run.  Wrappers are installed from the
benchmark's side: every ``mrtensor`` module namespace that holds the
same function object gets the wrapper, because ``solver`` and ``cli``
import names with ``from .x import y``.  Leaving the context restores
the original objects.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import time

# <module>.<function> pairs the traced run reports, in pipeline order.
TRACED = (
    "ingest.parse_events",
    "encode.build_tensor",
    "encode.adjacency_at_scale",
    "sptensor.from_entries",
    "sptensor.write_tensor",
    "sptensor.read_tensor",
    "sptensor.factor_rows",
    "sptensor.design_for_replicate",
    "sptensor.design_for_mode_slice",
    "model.objective",
    "model.write_model",
    "model.read_model",
    "model.motif_at_scale",
    "solver.fit_block_gs",
    "solver.update_scores",
    "solver.update_mode",
    "solver.mm_poisson_regression_group",
    "solver.penalized_objective",
    "analysis.simulate",
    "analysis.dissimilarity_matrix",
    "analysis.bray_curtis",
    "analysis.match_motifs",
    "analysis.write_motif_svg",
    "cli.cmd_encode",
    "cli.cmd_fit",
    "cli.cmd_motifs",
    "cli.cmd_dissim",
    "cli.cmd_scores",
)


class Tracer:
    """Collects nested spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self.factor_rows = 0  # rows produced by sptensor.factor_rows
        self.reports: list = []  # FitReport of every fit_block_gs call
        self.absent: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named ``name``."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, time.perf_counter())

    def _open(self) -> tuple[int, int]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end):
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start, time.perf_counter())
            if name == "sptensor.factor_rows":
                self.factor_rows += len(out)
            elif name == "solver.fit_block_gs":
                self.reports.append(out[1])
            return out

        return traced

    @contextlib.contextmanager
    def install(self):
        """Swap every traced function for its wrapper while in the block.

        Only the mrtensor modules are scanned; replacements are made by
        identity, so aliases under other names are covered too.
        """
        undo = []

        def swap(owner, attr, replacement):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None
            and (key == "mrtensor" or key.startswith("mrtensor."))
        ]
        self.absent = []
        try:
            for name in TRACED:
                module_name, func_name = name.split(".")
                home = importlib.import_module(f"mrtensor.{module_name}")
                cls = getattr(home, "SparseCountTensor", None)
                if func_name in vars(home):
                    original = vars(home)[func_name]
                    wrapper = self.wrap(name, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                swap(module, attr, wrapper)
                elif cls is not None and isinstance(
                    vars(cls).get(func_name), classmethod
                ):
                    raw = vars(cls)[func_name].__func__
                    swap(cls, func_name, classmethod(self.wrap(name, raw)))
                else:
                    self.absent.append(name)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Inclusive seconds, self seconds and calls per span name.

        A span nested inside a span of the same name (a function that
        calls itself) adds its self time but not a second inclusive
        time or call.
        """
        child, info = {}, {}
        for sid, parent, name, start, end in self.spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
            info[sid] = (parent, name)
        out: dict[str, dict[str, float]] = {}
        for sid, parent, name, start, end in self.spans:
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["self_s"] += (end - start) - child.get(sid, 0.0)
            ancestor = parent
            while ancestor and info[ancestor][1] != name:
                ancestor = info[ancestor][0]
            if not ancestor:
                row["s"] += end - start
                row["calls"] += 1
        return out

    def write(self, path, env: dict) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps({"env": env, "absent": self.absent}) + "\n")
            for sid, parent, name, start, end in sorted(self.spans):
                handle.write(json.dumps([sid, parent, name, start, end]) + "\n")
