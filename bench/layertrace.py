"""Spans around the public calls into each qserre module, installed from outside.

A span is ``[name, start, end, cpu, parent]``: ``start`` and ``end`` come
from ``perf_counter``, ``cpu`` is the ``thread_time`` spent inside it and
``parent`` is the index of the enclosing span on the same thread (-1 for
a root).  Names are ``layer.operation``.  Each thread keeps its own list;
when a root span ends, its tree is folded into per-name totals and, when
the tracer keeps spans, stored with its thread id for writing out.

Nothing in the package is edited: ``install`` rebinds module attributes
and class methods to wrappers and returns the list that ``uninstall``
uses to put the originals back.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time


def _name_totals():
    return {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "self_cpu_s": 0.0}


def span_stats(spans):
    """Fold one thread's spans into per-name and per-layer totals.

    Returns ``(names, layers)``.  ``names[name]`` holds ``calls``,
    ``incl_s`` (duration summed over spans with no ancestor of the same
    name), ``self_s`` (duration minus the part of it covered by child
    spans) and ``self_cpu_s`` (thread CPU minus that of the children).
    ``layers[layer]`` holds ``wait_s``: wall minus thread CPU, summed
    over spans with no ancestor in the same layer.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            children[s[4]].append(i)
    names = defaultdict(_name_totals)
    layers = defaultdict(lambda: {"wait_s": 0.0})
    for i, (name, start, end, cpu, parent) in enumerate(spans):
        covered = 0.0
        child_cpu = sum(spans[c][3] for c in children.get(i, ()))
        edge = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, edge), min(hi, end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        dur = end - start
        layer = name.split(".", 1)[0]
        outer_name = outer_layer = True
        p = parent
        while p >= 0:
            pname = spans[p][0]
            outer_name = outer_name and pname != name
            outer_layer = outer_layer and pname.split(".", 1)[0] != layer
            p = spans[p][4]
        agg = names[name]
        agg["calls"] += 1
        agg["self_s"] += dur - covered
        agg["self_cpu_s"] += cpu - child_cpu
        if outer_name:
            agg["incl_s"] += dur
        if outer_layer:
            layers[layer]["wait_s"] += dur - cpu
    return dict(names), dict(layers)


class Tracer:
    """Collects spans per thread and folds each finished root tree."""

    def __init__(self, keep_spans=False):
        self.keep_spans = keep_spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        with self._lock:
            self.names = defaultdict(_name_totals)
            self.layers = defaultdict(lambda: {"wait_s": 0.0})
            self.counters = defaultdict(int)
            self.maxima = defaultdict(int)
            self.kept = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
        return local.spans, local.stack

    def enter(self, name) -> int:
        spans, stack = self._thread_state()
        idx = len(spans)
        spans.append([name, perf_counter(), 0.0, thread_time(),
                      stack[-1] if stack else -1])
        stack.append(idx)
        return idx

    def exit(self, idx):
        end, cpu = perf_counter(), thread_time()
        spans, stack = self._thread_state()
        span = spans[idx]
        span[2], span[3] = end, cpu - span[3]
        stack.pop()
        if not stack:
            tree = spans[:]
            spans.clear()
            self._fold(tree)

    def _fold(self, tree):
        names, layers = span_stats(tree)
        with self._lock:
            for name, agg in names.items():
                mine = self.names[name]
                for k, v in agg.items():
                    mine[k] += v
            for layer, agg in layers.items():
                self.layers[layer]["wait_s"] += agg["wait_s"]
            if self.keep_spans:
                self.kept.append((threading.get_ident(), tree))

    def count(self, key, n=1):
        with self._lock:
            self.counters[key] += n

    def high(self, key, value):
        with self._lock:
            if value > self.maxima[key]:
                self.maxima[key] = value

    def wrap(self, fn, name, observe=None):
        """fn with a span around each call; observe(args, result) counts."""
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if observe is not None:
                observe(args, out)
            return out
        return traced


# ---------------------------------------------------------------------------
# installation: which calls are traced, and what each one counts
# ---------------------------------------------------------------------------

def _rebind_everywhere(original, replacement, undo):
    """Point every qserre module attribute bound to original at replacement."""
    for modname, mod in list(sys.modules.items()):
        if modname == "qserre" or modname.startswith("qserre."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    undo.append((mod, attr, original))


def _rebind_method(cls, attr, replacement, undo):
    undo.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, replacement)


def install(tracer: Tracer, qfield_only=False):
    """Trace every layer but qfield, or only the QRat operators."""
    from qserre import cli, exprparse, freealg, oracle, rewrite, series, verify
    from qserre.qfield import QRat

    undo = []
    if qfield_only:
        for attr, name in (("__add__", "qfield.add"), ("__radd__", "qfield.add"),
                           ("__sub__", "qfield.add"), ("__rsub__", "qfield.add"),
                           ("__mul__", "qfield.mul"), ("__rmul__", "qfield.mul"),
                           ("__truediv__", "qfield.div"),
                           ("__rtruediv__", "qfield.div")):
            _rebind_method(QRat, attr, tracer.wrap(QRat.__dict__[attr], name), undo)
        return undo

    def nc_mul(args, out):
        tracer.high("freealg.max_terms", len(out.terms))

    def reduced(args, out):
        tracer.count("rewrite.terms_in", len(args[1].terms))
        if getattr(out, "poly", out).is_zero:
            tracer.count("rewrite.zero")

    def completed(args, out):
        tracer.high("rewrite.rules", len(out))

    def prechecked(args, out):
        if out is False:
            tracer.count("oracle.reject")

    for fn, name, observe in (
            (cli.main, "cli.main", None),
            (exprparse.parse_expression, "exprparse.parse", None),
            (freealg.qproduct, "freealg.build", None),
            (freealg.big_Q, "freealg.build", None),
            (freealg.ayb_sides, "freealg.build", None),
            (freealg.lemma_product, "freealg.build", None),
            (rewrite.complete, "rewrite.complete", completed),
            (oracle.randomized_precheck, "oracle.precheck", prechecked),
            (series.check_ayb_formal, "series.formal", None),
            (series.check_ratio_identity, "series.ratio", None)):
        _rebind_everywhere(fn, tracer.wrap(fn, name, observe), undo)

    for cls, attr, name, observe in (
            (freealg.NcPoly, "__mul__", "freealg.mul", nc_mul),
            (rewrite.RuleSet, "reduce", "rewrite.reduce", reduced),
            (rewrite.RuleSet, "reduce_flagged", "rewrite.reduce", reduced),
            (oracle.IdealOracle, "__init__", "oracle.init", None),
            (oracle.IdealOracle, "slice_member", "oracle.slice", None),
            (verify.Verifier, "decide", "verify.decide", None),
            (verify.ChiEVerifier, "_decide", "verify.decide", None),
            (verify.ChiEVerifier, "family_reports", "verify.check", None)):
        _rebind_method(cls, attr, tracer.wrap(cls.__dict__[attr], name, observe), undo)
    for attr in sorted(vars(verify.Verifier)):
        if attr.startswith("check_"):
            fn = verify.Verifier.__dict__[attr]
            _rebind_method(verify.Verifier, attr, tracer.wrap(fn, "verify.check"), undo)
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced iteration
# ---------------------------------------------------------------------------

def layer_metrics(spans: Tracer, qfield: Tracer) -> dict:
    """Per-layer values from the all-layer tracer and the qfield-only one."""
    n, c, m, q = spans.names, spans.counters, spans.maxima, qfield.names

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "qfield.mul_calls": q["qfield.mul"]["calls"],
        "qfield.add_calls": q["qfield.add"]["calls"],
        "qfield.div_calls": q["qfield.div"]["calls"],
        "qfield.self_s": sum(v["self_s"] for v in q.values()),
        "freealg.mul_calls": n["freealg.mul"]["calls"],
        "freealg.mul_self_s": n["freealg.mul"]["self_s"],
        "freealg.build_s": n["freealg.build"]["incl_s"],
        "freealg.max_terms": m["freealg.max_terms"],
        "rewrite.complete_calls": n["rewrite.complete"]["calls"],
        "rewrite.complete_s": n["rewrite.complete"]["incl_s"],
        "rewrite.rules": m["rewrite.rules"],
        "rewrite.reduce_calls": n["rewrite.reduce"]["calls"],
        "rewrite.reduce_self_s": n["rewrite.reduce"]["self_s"],
        "rewrite.reduce_terms_in": c["rewrite.terms_in"],
        "rewrite.zero_share": share(c["rewrite.zero"], n["rewrite.reduce"]["calls"]),
        "oracle.instances": n["oracle.init"]["calls"],
        "oracle.slice_calls": n["oracle.slice"]["calls"],
        "oracle.slice_self_s": n["oracle.slice"]["self_s"],
        "oracle.precheck_calls": n["oracle.precheck"]["calls"],
        "oracle.precheck_self_s": n["oracle.precheck"]["self_s"],
        "oracle.precheck_reject_share": share(c["oracle.reject"],
                                              n["oracle.precheck"]["calls"]),
        "verify.decide_calls": n["verify.decide"]["calls"],
        "verify.decide_self_s": n["verify.decide"]["self_s"],
        "verify.wait_s": spans.layers["verify"]["wait_s"],
        "series.formal_s": n["series.formal"]["incl_s"],
        "series.ratio_s": n["series.ratio"]["incl_s"],
        "exprparse.parse_calls": n["exprparse.parse"]["calls"],
        "exprparse.parse_self_s": n["exprparse.parse"]["self_s"],
        "cli.self_cpu_s": n["cli.main"]["self_cpu_s"],
    }
