"""Spans and counters around the public functions of each opmeanlab layer.

The tracer replaces module attributes with thin wrappers.  ``statements``,
``search``, ``cli`` and the package namespace bind ``mean``, ``apply_map``,
``random_spd``, ``check`` and the rest at import time, so every module of
the package that holds the original function object gets the wrapper.
``numpy.linalg.eigh``, ``eigvalsh`` and ``qr`` are looked up on each call,
so replacing them once in ``numpy.linalg`` counts every call; they are the
kernel layer and get counts only, no spans.

A span is ``(name, start, end, parent)``.  Spans are held in memory in
compact arrays and written once, when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

#: (module, function, span name).  The three hypothesis probes of
#: ``functions`` share the span name ``functions.probe``.
SPANNED = (
    ("opmeanlab.symmat", "random_spd", "symmat.random_spd"),
    ("opmeanlab.symmat", "validate_band", "symmat.validate_band"),
    ("opmeanlab.symmat", "apply_scalar", "symmat.apply_scalar"),
    ("opmeanlab.symmat", "loewner_leq", "symmat.loewner_leq"),
    ("opmeanlab.kubo_ando", "mean", "kubo_ando.mean"),
    ("opmeanlab.kubo_ando", "alm_mean", "kubo_ando.alm_mean"),
    ("opmeanlab.linmaps", "apply_map", "linmaps.apply_map"),
    ("opmeanlab.constants", "kantorovich", "constants.kantorovich"),
    ("opmeanlab.constants", "polya_szego_coeff", "constants.polya_szego_coeff"),
    ("opmeanlab.constants", "secant_coeffs", "constants.secant_coeffs"),
    ("opmeanlab.constants", "chord_ratio_max", "constants.chord_ratio_max"),
    ("opmeanlab.constants", "mp_alpha", "constants.mp_alpha"),
    ("opmeanlab.constants", "mp_gamma", "constants.mp_gamma"),
    ("opmeanlab.constants", "weighted_kantorovich", "constants.weighted_kantorovich"),
    ("opmeanlab.constants", "yamazaki_coeff", "constants.yamazaki_coeff"),
    ("opmeanlab.functions", "is_operator_monotone", "functions.probe"),
    ("opmeanlab.functions", "midpoint_concave", "functions.probe"),
    ("opmeanlab.functions", "increasing_on", "functions.probe"),
    ("opmeanlab.statements", "hypothesis_violations", "statements.hypothesis_violations"),
    ("opmeanlab.statements", "check", "statements.check"),
    ("opmeanlab.statements", "run_trials", "statements.run_trials"),
    ("opmeanlab.search", "falsify", "search.falsify"),
    ("opmeanlab.search", "refine", "search.refine"),
    ("opmeanlab.matio", "read_sym_matrix", "matio.read_sym_matrix"),
    ("opmeanlab.matio", "write_sym_matrix", "matio.write_sym_matrix"),
    ("opmeanlab.cli", "main", "cli.main"),
)

COUNTED = ("eigh", "eigvalsh", "qr")


class Tracer:
    """Records spans and kernel counts while installed."""

    def __init__(self, reported_witnesses: int):
        self.reported_witnesses = reported_witnesses
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.kernel = Counter()
        self.alm_depth = 0
        self.alm_eigh = 0
        self.constant_args: set = set()
        self.constant_calls = 0
        self.witnesses_kept = 0
        self.witnesses_reported = 0
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, fn, name: str):
        nid = self._name_id(name)
        stack = self._stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        clock = time.perf_counter
        is_alm = name == "kubo_ando.alm_mean"
        is_constant = name.startswith("constants.")
        is_trials = name == "statements.run_trials"

        def wrapper(*args, **kwargs):
            span_id = nid
            if is_alm:
                mats = args[0] if args else kwargs["mats"]
                span_id = self._name_id(f"kubo_ando.alm_mean.n{len(mats)}")
                self.alm_depth += 1
            if is_constant:
                self.constant_calls += 1
                self.constant_args.add((name, repr(args), repr(sorted(kwargs.items()))))
            idx = len(starts)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if is_alm:
                    self.alm_depth -= 1
            if is_trials:
                kept = len(result.witnesses)
                self.witnesses_kept += kept
                self.witnesses_reported += min(kept, self.reported_witnesses)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        kernel = self.kernel
        stack = self._stack

        def wrapper(*args, **kwargs):
            # Only calls made inside a program span count: the benchmark's
            # own oracle uses numpy.linalg too.
            if stack:
                kernel[key] += 1
                if key == "eigh" and self.alm_depth:
                    self.alm_eigh += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "opmeanlab" or mod_name.startswith("opmeanlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        for mod_name, fn_name, span_name in SPANNED:
            original = getattr(sys.modules[mod_name], fn_name)
            self._replace_everywhere(original, self._spanned(original, span_name))
        for key in COUNTED:
            original = getattr(np.linalg, key)
            self._restore.append((np.linalg, key, original))
            setattr(np.linalg, key, self._counted(original, key))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        if not self.span_start:
            return {}
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: float(own[i]) for i, n in enumerate(self.names)}

    def calls(self) -> Counter:
        name = np.frombuffer(self.span_name, dtype=np.int32)
        counts = np.bincount(name, minlength=len(self.names))
        return Counter({n: int(counts[i]) for i, n in enumerate(self.names)})

    def save(self, path: str):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
        )
