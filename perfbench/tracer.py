"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces each listed function in every ``bse`` module
namespace that binds it (``bse.solvers`` imports ``cholesky`` from
``bse.kernels``, the package re-exports most names), and the ``apply_q``
method on both tridiagonal classes.  Internal calls resolve module globals at
call time, so nested calls are traced too.  A listed name that cannot be
found is reported in ``Tracer.missing``; the benchmark then omits its metric
rather than reporting a zero.

Spans live in memory as (name, start, end, parent, problem, value) and are
written out once, when the run ends.  A span's self time is its duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from functools import wraps

MODULES = ("bse", "bse.cli", "bse.core", "bse.embeddings", "bse.kernels",
           "bse.mmio", "bse.solvers", "bse.spectra")

#: (span name, home module, attribute path).  Several entries may share a
#: span name; ``kernels.tridiag_eig`` is split by its ``vectors`` argument.
TARGETS = (
    ("cli.main", "bse.cli", "main"),
    ("mmio.load_operator", "bse.mmio", "load_operator"),
    ("mmio.read_matrix", "bse.mmio", "read_matrix"),
    ("mmio.write", "bse.mmio", "write_matrix"),
    ("mmio.write", "bse.mmio", "write_eigenvalues"),
    ("core.validate", "bse.core", "validate"),
    ("core.residual_metrics", "bse.core", "residual_metrics"),
    ("embeddings.build_m", "bse.embeddings", "build_m"),
    ("embeddings.expand_full", "bse.embeddings", "expand_full"),
    ("kernels.cholesky", "bse.kernels", "cholesky"),
    ("kernels.skew_tridiagonalize", "bse.kernels", "skew_tridiagonalize"),
    ("kernels.sym_tridiagonalize", "bse.kernels", "sym_tridiagonalize"),
    ("kernels.apply_q", "bse.kernels", "SkewTridiagonal.apply_q"),
    ("kernels.apply_q", "bse.kernels", "SymTridiagonal.apply_q"),
    ("kernels.tridiag_eig", "bse.kernels", "tridiag_eig"),
    ("kernels.hermitian_eig", "bse.kernels", "hermitian_eig"),
    ("kernels.jacobi_svd", "bse.kernels", "jacobi_svd"),
    ("solvers.solve_complex", "bse.solvers", "solve_complex"),
    ("solvers.solve_real", "bse.solvers", "solve_real"),
    ("solvers.solve_oracle", "bse.solvers", "solve_oracle"),
    ("solvers.tda_gap_report", "bse.solvers", "tda_gap_report"),
    ("spectra.dos_dominance", "bse.spectra", "dos_dominance"),
)

#: Spans whose value is the order m of the matrix reduced.
ORDER_SPANS = ("kernels.skew_tridiagonalize", "kernels.sym_tridiagonalize")


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.problem: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        modules = [importlib.import_module(name) for name in MODULES]
        for span, home, path in TARGETS:
            owner = importlib.import_module(home)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{home}.{path}")
                continue
            wrapper = self._wrap(span, original)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, span: str, fn):
        tracer = self
        if span == "kernels.tridiag_eig":
            signature = inspect.signature(fn)
            vectors_default = signature.parameters["vectors"].default

            def name_of(args, kwargs):
                vectors = signature.bind(*args, **kwargs).arguments.get(
                    "vectors", vectors_default)
                return span + (".with_vectors" if vectors else ".values_only")
        else:
            def name_of(args, kwargs):
                return span

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if span in ORDER_SPANS:
                tracer.spans[index][5] = len(args[0])
            elif span == "mmio.write":
                tracer.spans[index][5] = os.path.getsize(args[0])
            return result
        return wrapper

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.problem, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and the
        list of recorded values."""
        covered = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, value) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "values": []})
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += (end - start) - covered[i]
            if value is not None:
                rec["values"].append(value)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "problem", "value")
        with open(path, "w", newline="\n") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
