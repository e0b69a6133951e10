"""Spans around the public calls between korncert's modules.

Tracer.install() replaces each target function, in its defining module
and in every korncert module that imported it by name, with a wrapper
that records a span: id, parent id, operation id, name, start, end and
an optional size.  StarDomain is traced through its __init__, which
runs the radial validation.  Spans stay in memory until dump().
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(args, kwargs) -> int:
    m = args[0] if args else kwargs["constraints"]
    return int(np.shape(getattr(m, "matrix", m))[0])


def _cells(args, kwargs) -> int:
    return len(args[0]) * args[1]


# (module, attribute, size function).  Every target counts calls and
# self time; a size function adds a size per call.
TARGETS = [
    ("korncert.diffop", "ellipticity_probe", None),
    ("korncert.diffop", "symbol_matrix", None),
    ("korncert.diffop", "apply_operator", None),
    ("korncert.kernel", "coefficient_matrix", None),
    ("korncert.kernel", "kernel_basis", None),
    ("korncert.kernel", "kernel_dim_profile", None),
    ("korncert.linalg", "rref", _cells),
    ("korncert.polyalg", "eval_poly", None),
    ("korncert.geometry", "boundary_point", None),
    ("korncert.geometry", "outward_normal", None),
    ("korncert.geometry", "sample_grid", None),
    ("korncert.normtest", "numeric_nullspace", _rows),
    ("korncert.normtest", "certificate_residual", None),
    ("korncert.normtest", "classify", None),
    ("korncert.normtest", "point_measure_test", None),
    ("korncert.cli", "validate_config", None),
    ("korncert.cli", "emit_plot_data", None),
]

# Per-layer metrics: (name, span, statistic).  "self" is span time minus
# the time of its traced children, per pass; "calls" counts spans per
# pass; "size_sum" / "size_max" aggregate the sizes.
LAYER_METRICS = [
    ("diffop.ellipticity_probe_s", "diffop.ellipticity_probe", "self"),
    ("diffop.symbol_matrix_calls", "diffop.symbol_matrix", "calls"),
    ("diffop.apply_operator_calls", "diffop.apply_operator", "calls"),
    ("diffop.apply_operator_s", "diffop.apply_operator", "self"),
    ("kernel.coefficient_matrix_s", "kernel.coefficient_matrix", "self"),
    ("kernel.kernel_basis_calls", "kernel.kernel_basis", "calls"),
    ("kernel.kernel_dim_profile_s", "kernel.kernel_dim_profile", "self"),
    ("linalg.rref_s", "linalg.rref", "self"),
    ("linalg.rref_cells", "linalg.rref", "size_sum"),
    ("polyalg.eval_poly_calls", "polyalg.eval_poly", "calls"),
    ("polyalg.eval_poly_s", "polyalg.eval_poly", "self"),
    ("geometry.boundary_point_calls", "geometry.boundary_point", "calls"),
    ("geometry.outward_normal_calls", "geometry.outward_normal", "calls"),
    ("geometry.outward_normal_s", "geometry.outward_normal", "self"),
    ("geometry.sample_grid_s", "geometry.sample_grid", "self"),
    ("geometry.StarDomain_s", "geometry.StarDomain", "self"),
    ("normtest.numeric_nullspace_s", "normtest.numeric_nullspace", "self"),
    ("normtest.numeric_nullspace_max_rows", "normtest.numeric_nullspace", "size_max"),
    ("normtest.certificate_residual_s", "normtest.certificate_residual", "self"),
    ("normtest.certificate_residual_calls", "normtest.certificate_residual", "calls"),
    ("normtest.classify_s", "normtest.classify", "self"),
    ("normtest.point_measure_test_s", "normtest.point_measure_test", "self"),
    ("cli.validate_config_s", "cli.validate_config", "self"),
    ("cli.emit_plot_data_s", "cli.emit_plot_data", "self"),
]


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        # span: [id, parent, op, name, start, end, size]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def span(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [
                len(self.spans),
                self._stack[-1] if self._stack else None,
                self.op_id,
                name,
                0.0,
                0.0,
                size(args, kwargs) if size else None,
            ]
            self.spans.append(rec)
            self._stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever korncert refers to it by name."""
        modules = [m for k, m in sys.modules.items() if k == "korncert" or k.startswith("korncert.")]
        for mod_name, attr, size in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self.span(f"{mod_name.split('.')[1]}.{attr}", orig, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        star = sys.modules["korncert.geometry"].StarDomain
        star.__init__ = self.span("geometry.StarDomain", star.__init__)

    def begin_op(self, name: str) -> None:
        """Open a root span for one benchmark operation."""
        self.op_id += 1
        self._stack.clear()
        self._root = [len(self.spans), None, self.op_id, f"op.{name}", time.perf_counter(), 0.0, None]
        self.spans.append(self._root)
        self._stack.append(self._root[0])

    def end_op(self) -> None:
        self._root[5] = time.perf_counter()
        self._stack.clear()

    def layer_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics over spans[first:last] (one traced pass)."""
        spans = self.spans[first:last]
        child_time = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]
        self_time = defaultdict(float)
        calls = defaultdict(int)
        size_sum = defaultdict(int)
        size_max = defaultdict(int)
        for s in spans:
            name = s[3]
            self_time[name] += (s[5] - s[4]) - child_time[s[0]]
            calls[name] += 1
            if s[6] is not None:
                size_sum[name] += s[6]
                size_max[name] = max(size_max[name], s[6])
        table = {"self": self_time, "calls": calls, "size_sum": size_sum, "size_max": size_max}
        return {metric: table[stat].get(span, 0) for metric, span, stat in LAYER_METRICS}

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "op", "name", "start", "end", "size")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
