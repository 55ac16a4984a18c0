"""In-memory spans around calls into idlaws' public functions.

A Tracer replaces every module binding of each traced function with a
wrapper (log_cf_lk, for one, is bound in idlaws.canonical, idlaws.khinchin,
idlaws.cli and the package), so calls from inside the package are seen too.
Each span records id, name, parent id, start, end and one size; self time is
a span's duration minus that of its child spans. The package source is not
touched; leaving Tracer.installed() restores the original bindings.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _integrate_nodes(m, f, atom_values=None, order=20):
    return len(m.atoms) + order * int(np.count_nonzero(m.values > 0))


def _k_pairs(delta_ts, delta_values, u_points, chunk=256):
    return int(np.size(u_points)) * int(np.count_nonzero(np.asarray(delta_ts) >= 0.0))


# (module, function, size name, size of one call from its arguments)
TARGETS = (
    ("canonical", "log_cf_lk", None, None),
    ("canonical", "log_cf_lk_profile", None, None),
    ("canonical", "catalog", None, None),
    ("canonical", "lk_to_kolmogorov", None, None),
    ("canonical", "lk_to_levy", None, None),
    ("canonical", "law_to_json_dict", None, None),
    ("measure", "integrate", "nodes", _integrate_nodes),
    ("measure", "restrict", None, None),
    ("measure", "reweight", None, None),
    ("measure", "combine", None, None),
    ("measure", "fourier_transform", "t_points", lambda m, ts, order=20: int(np.size(ts))),
    ("measure", "quantile", "draws", lambda m, q: int(np.size(q))),
    ("divisibility", "build_log_cf_grid", "points", lambda f, t_max, points: int(points)),
    ("divisibility", "build_cf_grid", "points", lambda f, t_max, points: int(points)),
    ("divisibility", "verify_infinitely_divisible", None, None),
    ("divisibility", "grid_to_csv", None, None),
    ("khinchin", "delta_profile", None, None),
    ("khinchin", "k_from_delta", "pairs", _k_pairs),
    ("khinchin", "g_from_k", None, None),
    ("khinchin", "invert_cf", None, None),
    ("khinchin", "inversion_report", None, None),
    ("khinchin", "truncate_cp", None, None),
    ("khinchin", "definetti_sequence", None, None),
    ("simulate", "sample_path", None, None),
    ("simulate", "stream_for", None, None),
    ("simulate", "sample_increments", "draws", lambda spec, duration, count, stream: int(count)),
    ("simulate", "empirical_cf", None, None),
    ("simulate", "paths_to_csv", None, None),
    ("cli", "main", None, None),
)


class Tracer:
    """Collects spans while installed; aggregates calls, self time and sizes."""

    def __init__(self):
        self.spans = []  # (id, name, parent id or -1, start, end, size)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.sizes = Counter()
        self._stack = []  # [id, child time] of each open span
        self._restore = []

    def _wrap(self, name, fn, sizer):
        spans, stack = self.spans, self._stack
        calls, self_s, sizes = self.calls, self.self_s, self.sizes
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            size = sizer(*args, **kwargs) if sizer is not None else 0
            parent = stack[-1][0] if stack else -1
            frame = [len(spans) + len(stack), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], name, parent, start, end, size))
                calls[name] += 1
                self_s[name] += dur - frame[1]
                sizes[name] += size

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every idlaws module binding of each target for the duration."""
        modules = [m for n, m in list(sys.modules.items()) if n == "idlaws" or n.startswith("idlaws.")]
        try:
            for module_name, func_name, _, sizer in TARGETS:
                original = getattr(importlib.import_module(f"idlaws.{module_name}"), func_name, None)
                if original is None:  # gone from the package: its metrics read 0
                    continue
                wrapper = self._wrap(f"{module_name}.{func_name}", original, sizer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(self._restore):
                setattr(mod, attr, original)
            self._restore.clear()

    def write(self, path) -> None:
        """Spans as CSV, in the order they ended."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start_s,end_s,size\n")
            for sid, name, parent, start, end, size in self.spans:
                fh.write(f"{sid},{name},{parent},{start!r},{end!r},{size}\n")
