"""Spans around the library's public entry points, for the traced run.

:func:`install` replaces entry points of the six qtorus modules with wrappers
defined here; the library itself is not edited.  Each wrapped call while the
log is active records one span (name, start, end, parent span, op id) in
flat arrays kept in memory, plus counters taken from its arguments and
result.  :meth:`SpanLog.layer_metrics` turns them into per-op figures, where
a span's self time is its duration minus the durations of its child spans
(all spans are on one thread, so children nest and never overlap).
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

import qtorus
from qtorus import algebra, cli, maps, phases, rewrite, suite

# Layers with a calls / self_s pair, in report order.
LAYERS = (
    "phases.gaussian_mul",
    "phases.gaussian_add",
    "phases.scalar_mul",
    "phases.scalar_add",
    "phases.tokenize",
    "algebra.element_mul",
    "algebra.phase_exponent",
    "algebra.render",
    "algebra.records",
    "rewrite.normal_order",
    "maps.apply",
    "cli.parse_expression",
    "suite.random_element",
)
COUNTERS = (
    "phases.scalar_mul.term_pairs",
    "algebra.element_mul.term_pairs",
    "algebra.element_mul.terms_out",
    "rewrite.normal_order.letters",
    "maps.apply.basis_images",
)


class SpanLog:
    """Spans and counters of one traced run, held in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.counters = dict.fromkeys(COUNTERS, 0)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def drop_last(self) -> None:
        """Forget the newest span (a call that returned NotImplemented)."""
        for column in (self.name, self.parent, self.op, self.start, self.end):
            column.pop()

    def layer_metrics(self, ops: int, checks) -> dict[str, float]:
        """Per-op calls, self time and counters of every layer, from the spans;
        wall time per op of each suite check named in ``checks``."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=dur - covered, minlength=width)
        wall_s = np.bincount(names, weights=dur, minlength=width)
        known = {n: i for i, n in enumerate(self.names)}

        out: dict[str, float] = {}
        for layer in LAYERS:
            i = known.get(layer)
            out[f"{layer}.calls"] = float(calls[i]) / ops if i is not None else 0.0
            out[f"{layer}.self_s"] = float(self_s[i]) / ops if i is not None else 0.0
        for check in checks:
            i = known.get(f"suite.check.{check}")
            out[f"suite.check.{check}.wall_s"] = float(wall_s[i]) / ops if i is not None else 0.0
        c = self.counters
        scalar_muls = out["phases.scalar_mul.calls"] * ops
        out["phases.scalar_terms_per_mul"] = (
            c["phases.scalar_mul.term_pairs"] / scalar_muls if scalar_muls else 0.0
        )
        pairs = c["algebra.element_mul.term_pairs"]
        out["algebra.element_mul.term_pairs"] = pairs / ops
        out["algebra.element_mul.terms_out"] = c["algebra.element_mul.terms_out"] / ops
        # pairs whose index repeated an earlier pair's (merges, including the
        # rare ones that cancel to zero)
        out["algebra.element_mul.merge_ratio"] = (
            1 - c["algebra.element_mul.terms_out"] / pairs if pairs else 0.0
        )
        out["rewrite.normal_order.letters"] = c["rewrite.normal_order.letters"] / ops
        out["maps.apply.basis_images"] = c["maps.apply.basis_images"] / ops
        return out

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _wrap(log: SpanLog, name: str, fn, count=None, traced=None):
    """fn, recording a span per call while ``log.active``.

    ``traced(args)`` may exclude calls (they run unrecorded, so their time
    lands in the caller's self time); ``count(counters, args, result)``
    updates counters after the span has closed.
    """
    nid = log.name_id(name)

    def wrapper(*args, **kwargs):
        if not log.active or (traced is not None and not traced(args)):
            return fn(*args, **kwargs)
        sid = log.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(sid)
        if result is NotImplemented:
            log.drop_last()
        elif count is not None:
            count(log.counters, args, result)
        return result

    return wrapper


def _count_scalar_mul(counters, args, result):
    a, b = args
    n = len(b.terms) if isinstance(b, phases.PhaseScalar) else 1
    counters["phases.scalar_mul.term_pairs"] += len(a.terms) * n


def _count_element_mul(counters, args, result):
    a, b = args
    counters["algebra.element_mul.term_pairs"] += len(a.support) * len(b.support)
    counters["algebra.element_mul.terms_out"] += len(result.support)


def _count_letters(counters, args, result):
    counters["rewrite.normal_order.letters"] += len(args[1])


def _count_basis_images(counters, args, result):
    counters["maps.apply.basis_images"] += len(args[1].support)


def _is_element_product(args):
    return isinstance(args[1], algebra.AlgebraElement)


def _targets():
    """(span name, [(owner, attribute)], count, traced) for every wrapped entry point."""
    GR, PS = phases.GaussianRational, phases.PhaseScalar
    AE, AD = algebra.AlgebraElement, algebra.AlgebraDescriptor
    return [
        ("phases.gaussian_mul", [(GR, "__mul__"), (GR, "__rmul__")], None, None),
        ("phases.gaussian_add", [(GR, "__add__"), (GR, "__radd__")], None, None),
        ("phases.scalar_mul", [(PS, "__mul__"), (PS, "__rmul__")], _count_scalar_mul, None),
        ("phases.scalar_add", [(PS, "__add__"), (PS, "__radd__")], None, None),
        ("phases.tokenize", [(phases, "tokenize"), (cli, "tokenize")], None, None),
        ("algebra.element_mul", [(AE, "__mul__")], _count_element_mul, _is_element_product),
        ("algebra.phase_exponent", [(AD, "phase_exponent")], None, None),
        ("algebra.render", [(AE, "render"), (AE, "__str__")], None, None),
        ("algebra.records", [(AE, "to_records"), (AE, "from_records")], None, None),
        (
            "rewrite.normal_order",
            [(rewrite, "normal_order_exponent"), (suite, "normal_order_exponent"),
             (qtorus, "normal_order_exponent")],
            _count_letters,
            None,
        ),
        ("maps.apply", [(maps.LinearMap, "__call__")], _count_basis_images, None),
        ("cli.parse_expression", [(cli, "parse_expression"), (qtorus, "parse_expression")],
         None, None),
        ("suite.random_element", [(suite, "random_element"), (qtorus, "random_element")],
         None, None),
    ]


def install(log: SpanLog):
    """Wrap the entry points; returns the (owner, attribute, original) list to restore."""
    saved = []
    for name, places, count, traced in _targets():
        for owner, attr in places:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(log, name, original.__func__, count, traced))
            else:
                wrapped = _wrap(log, name, original, count, traced)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
    for check in list(suite.CHECKS):
        saved.append((suite.CHECKS, check, suite.CHECKS[check]))
        suite.CHECKS[check] = _wrap(log, f"suite.check.{check}", suite.CHECKS[check])
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)
