"""Outside-in tracing of fraclamb's layers.

The tracer wraps, from the benchmark's side, the names each calling module
binds (module attributes and class attributes), records a span per call
and counts work at the same boundaries. Nothing in ``src/`` changes: a
layer whose name is missing in the checked-out version is simply not
traced and reports zero.

Spans stay in memory as small lists and are written out once, at the end
of the run. A span's self time is its duration minus its children's
durations minus the tracer's own bookkeeping done inside it.
"""

from __future__ import annotations

import collections
import json
import time

import numpy as np

NODES_PER_PANEL = 32  # the documented Gauss-Legendre rule of fraclamb._quad

# span record layout: [id, parent, op, name, start, end, excluded]
_ID, _PARENT, _OP, _NAME, _START, _END, _EXCL = range(7)

_BUILTIN_FUNCTIONS = ("Exponential", "GaussTail", "ShiftedGaussian")


class Tracer:
    """Installs wrappers, records spans and counts, and removes the
    wrappers again; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1
        self.groups: dict[int, str] = {}  # op id -> deck group
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._weights: dict[int, np.ndarray] = {}

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1][_ID] if self._stack else -1,
               self.op, name, 0.0, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[_START] = time.perf_counter()
        return rec

    def exit(self, rec: list):
        rec[_END] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str:
        return self._stack[-1][_NAME] if self._stack else ""

    def exclude(self, seconds: float):
        """Charge tracer bookkeeping to no layer."""
        if self._stack:
            self._stack[-1][_EXCL] += seconds

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name: str, make):
        original = getattr(owner, name, None)
        if original is None:
            return
        own = name in vars(owner)
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original, own))

    def install(self):
        from fraclamb import (DEFAULT_CONFIG, _quad, cli, forward_verifier, fractional_ops,
                              function_model, lamb_solver)

        self._patch(_quad, "integrate_batch", self._wrap_quad)
        for module in (fractional_ops, forward_verifier):
            self._patch(module, "effective_lower_cutoff", self._wrap_span("cutoff", "cutoff_calls"))
        self._patch(lamb_solver, "_weyl_batch", self._wrap_weyl)
        for module in (forward_verifier, cli):
            for name in ("forward_power", "forward_radial"):
                self._patch(module, name, self._wrap_span("forward", "forward_calls"))
            for name in ("forward_quadform_mc", "forward_montecarlo"):
                self._patch(module, name, lambda orig: self._wrap_mc(orig, DEFAULT_CONFIG))
        memo = getattr(lamb_solver, "_Memoized", None)
        if memo is not None:
            self._patch(memo, "__call__",
                        lambda orig: self._wrap_memo(orig, getattr(lamb_solver, "_MEMO_BYPASS", None)))
        for cls_name in _BUILTIN_FUNCTIONS:
            cls = getattr(function_model, cls_name, None)
            if cls is not None:
                for name in ("tail_bound", "value_tail_bound"):
                    self._patch(cls, name, self._wrap_count("tail_bound_calls"))
        # The artifact's formatting and its write are one layer: output.
        self._patch(cli, "_grid_payload", self._wrap_span("emit"))
        self._patch(cli, "_emit", self._wrap_emit)

    def uninstall(self):
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _wrap_span(self, span: str, counter: str | None = None):
        def make(orig):
            def wrapper(*args, **kwargs):
                if counter:
                    self.counts[counter] += 1
                rec = self.enter(span)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.exit(rec)
            return wrapper
        return make

    def _wrap_count(self, counter: str):
        def make(orig):
            def wrapper(*args, **kwargs):
                self.counts[counter] += 1
                return orig(*args, **kwargs)
            return wrapper
        return make

    def _wrap_weyl(self, orig):
        def wrapper(g, mu, xs, *args, **kwargs):
            self.counts["weyl_calls"] += 1
            self.counts["weyl_points"] += int(np.size(xs))
            rec = self.enter("weyl")
            try:
                return orig(g, mu, xs, *args, **kwargs)
            finally:
                self.exit(rec)
        return wrapper

    def _wrap_mc(self, orig, default_cfg):
        def wrapper(u, a, x, cfg=default_cfg):
            self.counts["mc_samples"] += int(cfg.mc_samples)
            rec = self.enter("mc")
            try:
                return orig(u, a, x, cfg)
            finally:
                self.exit(rec)
        return wrapper

    def _wrap_memo(self, orig, bypass):
        def wrapper(memo, xs):
            t = time.perf_counter()
            flat = np.asarray(xs, dtype=float).ravel()
            cache = getattr(memo, "_cache", None)
            if cache is not None and (bypass is None or flat.size <= bypass):
                keys = flat.tolist()
                self.counts["memo_lookups"] += len(keys)
                self.counts["memo_hits"] += sum(1 for k in keys if k in cache)
            self.exclude(time.perf_counter() - t)
            rec = self.enter("memo")
            try:
                return orig(memo, xs)
            finally:
                self.exit(rec)
        return wrapper

    def _wrap_emit(self, orig):
        def wrapper(text, path):
            self.counts["bytes_out"] += len(text.encode("utf-8"))
            rec = self.enter("emit")
            try:
                return orig(text, path)
            finally:
                self.exit(rec)
        return wrapper

    def _unit_weights(self, panels: int) -> np.ndarray:
        if panels not in self._weights:
            _, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
            self._weights[panels] = np.tile(0.5 * w / panels, panels)
        return self._weights[panels]

    def _wrap_quad(self, orig):
        def wrapper(integrand, uppers, cfg):
            kind = {"weyl": "weyl", "forward": "forward"}.get(self.parent_name(), "other")
            up = np.atleast_1d(np.asarray(uppers, dtype=float))
            estimates, per_row = [], []

            def counted(s):
                vals = integrand(s)
                t = time.perf_counter()
                panels = s.shape[1] // NODES_PER_PANEL
                estimates.append(up * (np.asarray(vals) @ self._unit_weights(panels)))
                per_row.append(s.shape[1])
                self.exclude(time.perf_counter() - t)
                return vals

            rec = self.enter("quad." + kind)
            try:
                return orig(counted, uppers, cfg)
            finally:
                self.exit(rec)
                self._count_quad(kind, up.size, estimates, per_row, cfg.tol)
        return wrapper

    def _count_quad(self, kind, rows, estimates, per_row, tol):
        """Calls, rows, levels and nodes, and the nodes spent on rows that
        had not converged yet, from the doubling rule
        |I_l - I_(l-1)| <= tol * (1 + |I_l|) applied to the integrand's
        outputs (computed here, not read from the program)."""
        c = self.counts
        c[f"quad.calls.{kind}"] += 1
        c[f"quad.rows.{kind}"] += rows
        c[f"quad.levels.{kind}"] += len(per_row)
        c[f"quad.nodes.{kind}"] += rows * sum(per_row)
        done = np.zeros(rows, dtype=bool)
        useful = rows * per_row[0] if per_row else 0
        for level in range(1, len(per_row)):
            useful += per_row[level] * int(np.count_nonzero(~done))
            cur, prev = estimates[level], estimates[level - 1]
            done |= np.abs(cur - prev) <= tol * (1.0 + np.abs(cur))
        c[f"quad.useful_nodes.{kind}"] += useful

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span, indexed like ``spans``."""
        own = [rec[_END] - rec[_START] - rec[_EXCL] for rec in self.spans]
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                own[rec[_PARENT]] -= rec[_END] - rec[_START]
        return own

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for rec, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "id": rec[_ID], "parent": rec[_PARENT], "op": rec[_OP],
                    "group": self.groups.get(rec[_OP], ""), "name": rec[_NAME],
                    "start": rec[_START], "end": rec[_END], "self": own,
                }) + "\n")


# Layer metrics: (name, unit, better). Counts and times are per op.
QUAD_KINDS = ("weyl", "forward")
LAYER_METRICS = [
    ("function_model.cutoff_calls", "count/op", "lower"),
    ("function_model.tail_bound_calls", "count/op", "lower"),
    ("function_model.cutoff_self_ms", "ms/op", "lower"),
    *[(f"quad.{m}.{k}", unit, better) for k in QUAD_KINDS for m, unit, better in (
        ("calls", "count/op", "lower"),
        ("rows", "count/op", "lower"),
        ("levels", "count/call", "lower"),
        ("nodes", "count/op", "lower"),
        ("self_ms", "ms/op", "lower"),
        ("ns_per_node", "ns", "lower"),
        ("useful_node_ratio", "ratio", "higher"),
    )],
    ("fractional_ops.weyl_calls", "count/op", "lower"),
    ("fractional_ops.weyl_points", "count/op", "lower"),
    ("fractional_ops.weyl_points_per_call", "count/call", "higher"),
    ("fractional_ops.weyl_self_ms", "ms/op", "lower"),
    ("lamb_solver.memo_lookups", "count/op", "lower"),
    ("lamb_solver.memo_hits", "count/op", "higher"),
    ("lamb_solver.memo_hit_ratio", "ratio", "higher"),
    ("lamb_solver.memo_self_ms", "ms/op", "lower"),
    ("forward_verifier.forward_calls", "count/op", "lower"),
    ("forward_verifier.forward_self_ms", "ms/op", "lower"),
    ("forward_verifier.mc_samples", "count/op", "lower"),
    ("forward_verifier.mc_self_ms", "ms/op", "lower"),
    ("forward_verifier.mc_ns_per_sample", "ns", "lower"),
    ("cli.self_ms", "ms/op", "lower"),
    ("cli.emit_self_ms", "ms/op", "lower"),
    ("cli.bytes_out", "B/op", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# span name -> the layer its self time belongs to
SPAN_LAYERS = {
    "op": "cli", "emit": "cli.emit", "cutoff": "function_model.cutoff",
    "quad.weyl": "quad.weyl", "quad.forward": "quad.forward", "quad.other": "quad.other",
    "weyl": "fractional_ops.weyl", "memo": "lamb_solver.memo",
    "forward": "forward_verifier.forward", "mc": "forward_verifier.mc",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, overhead_pct: float) -> dict:
    """Per-layer metrics from one or more traced rounds of ``ops`` ops."""
    selfs = collections.Counter()
    for rec, own in zip(tracer.spans, tracer.self_times()):
        selfs[SPAN_LAYERS[rec[_NAME]]] += own
    c = tracer.counts
    per_op = lambda v: v / ops
    ms = lambda layer: 1e3 * selfs[layer] / ops
    values = {
        "function_model.cutoff_calls": per_op(c["cutoff_calls"]),
        "function_model.tail_bound_calls": per_op(c["tail_bound_calls"]),
        "function_model.cutoff_self_ms": ms("function_model.cutoff"),
        "fractional_ops.weyl_calls": per_op(c["weyl_calls"]),
        "fractional_ops.weyl_points": per_op(c["weyl_points"]),
        "fractional_ops.weyl_points_per_call": _ratio(c["weyl_points"], c["weyl_calls"]),
        "fractional_ops.weyl_self_ms": ms("fractional_ops.weyl"),
        "lamb_solver.memo_lookups": per_op(c["memo_lookups"]),
        "lamb_solver.memo_hits": per_op(c["memo_hits"]),
        "lamb_solver.memo_hit_ratio": _ratio(c["memo_hits"], c["memo_lookups"]),
        "lamb_solver.memo_self_ms": ms("lamb_solver.memo"),
        "forward_verifier.forward_calls": per_op(c["forward_calls"]),
        "forward_verifier.forward_self_ms": ms("forward_verifier.forward"),
        "forward_verifier.mc_samples": per_op(c["mc_samples"]),
        "forward_verifier.mc_self_ms": ms("forward_verifier.mc"),
        "forward_verifier.mc_ns_per_sample": 1e9 * _ratio(selfs["forward_verifier.mc"], c["mc_samples"]),
        "cli.self_ms": ms("cli"),
        "cli.emit_self_ms": ms("cli.emit"),
        "cli.bytes_out": per_op(c["bytes_out"]),
        "trace.overhead_pct": overhead_pct,
    }
    for k in QUAD_KINDS:
        nodes = c[f"quad.nodes.{k}"]
        values.update({
            f"quad.calls.{k}": per_op(c[f"quad.calls.{k}"]),
            f"quad.rows.{k}": per_op(c[f"quad.rows.{k}"]),
            f"quad.levels.{k}": _ratio(c[f"quad.levels.{k}"], c[f"quad.calls.{k}"]),
            f"quad.nodes.{k}": per_op(nodes),
            f"quad.self_ms.{k}": ms(f"quad.{k}"),
            f"quad.ns_per_node.{k}": 1e9 * _ratio(selfs[f"quad.{k}"], nodes),
            f"quad.useful_node_ratio.{k}": _ratio(c[f"quad.useful_nodes.{k}"], nodes),
        })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}


def group_shares(tracer: Tracer) -> dict:
    """{group: (ms per op, {layer: share of the group's op time})}."""
    totals = collections.defaultdict(collections.Counter)
    ops = collections.defaultdict(set)
    for rec, own in zip(tracer.spans, tracer.self_times()):
        g = tracer.groups.get(rec[_OP], "")
        totals[g][SPAN_LAYERS[rec[_NAME]]] += own
        ops[g].add(rec[_OP])
    out = {}
    for g, layers in sorted(totals.items()):
        total = sum(layers.values())
        out[g] = (1e3 * total / len(ops[g]),
                  {layer: v / total for layer, v in layers.most_common()})
    return out
