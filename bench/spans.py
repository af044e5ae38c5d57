"""Span recorder for the traced run.

The package under test carries no instrumentation.  For the traced run
only, `instrument` replaces each layer's public functions with a wrapper
that records a span, and rebinds every name in the package's modules
that refers to the original (for example `homology` does
`from .linalg import det_int`).  `undo` restores them.

A span is (id, name, start_ns, end_ns, parent id, op id, error type).
Spans are kept in memory and only recorded inside an op, so oracle
checks that call the same functions leave no spans.  A layer's self
time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field

PACKAGE = "contactsurgery"

# (span name, module, attribute): module-level functions.
FUNCTIONS = [
    ("linalg.det_int", "linalg", "det_int"),
    ("linalg.signature_exact", "linalg", "signature_exact"),
    ("linalg.solve_exact", "linalg", "solve_exact"),
    ("linalg.mat_mul_int", "linalg", "mat_mul_int"),
    ("homology.linking_matrix", "homology", "linking_matrix"),
    ("homology.homology_data", "homology", "homology_data"),
    ("homology.spin_c_evaluation", "homology", "spin_c_evaluation"),
    ("homology.d3_invariant", "homology", "d3_invariant"),
    ("expansion.expand", "expansion", "expand"),
    ("expansion.negative_continued_fraction", "expansion", "negative_continued_fraction"),
    ("openbook.homology_action", "openbook", "homology_action"),
    ("openbook.lantern_rewrite", "openbook", "lantern_rewrite"),
    ("openbook.giroux_stabilize", "openbook", "giroux_stabilize"),
    ("openbook.giroux_destabilize", "openbook", "giroux_destabilize"),
    ("openbook.cyclic_words_equal", "openbook", "cyclic_words_equal"),
    ("openbook.cap_off", "openbook", "cap_off"),
    ("ledger.assert_fact", "ledger", "assert_fact"),
    ("ledger.apply_rules", "ledger", "apply_rules"),
    ("ledger.inverse_limit_status", "ledger", "inverse_limit_status"),
    ("ledger.tight_surgery_ranges", "ledger", "tight_surgery_ranges"),
    ("diagramio.parse_diagram_file", "diagramio", "parse_diagram_file"),
    ("diagramio.parse_open_book_file", "diagramio", "parse_open_book_file"),
    ("diagramio.presentation_to_dict", "diagramio", "presentation_to_dict"),
    ("cli.main", "cli", "main"),
]

# (span name, module, class, attribute): methods and classmethods.
METHODS = [
    ("ledger.window", "ledger", "LedgerState", "window"),
    ("catalog.builtin", "catalog", "Catalog", "builtin"),
    ("catalog.lookup", "catalog", "Catalog", "lookup"),
]

LAYERS = ("cli", "diagramio", "catalog", "expansion", "homology", "linalg", "openbook", "ledger")


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    op: int
    error: str | None = None
    sizes: tuple = ()  # input or output sizes, by span name (see _SIZES)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    op_id: int | None = None

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack = [self._open("op", time.perf_counter_ns())]

    def end_op(self) -> None:
        self.spans[self.stack.pop()].end = time.perf_counter_ns()
        self.op_id = None

    def _open(self, name: str, start: int) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(len(self.spans), name, start, start, parent, self.op_id))
        return len(self.spans) - 1

    def wrap(self, name: str, fn, size_of=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            sid = tracer._open(name, time.perf_counter_ns())
            tracer.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.spans[sid].error = type(exc).__name__
                raise
            finally:
                tracer.spans[sid].end = time.perf_counter_ns()
                tracer.stack.pop()
            if size_of is not None:
                tracer.spans[sid].sizes = size_of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


_SIZES = {
    # matrix n
    "linalg.det_int": lambda args, result: (len(args[0]),),
    # letters applied
    "openbook.homology_action": lambda args, result: (len(args[0]),),
    # framings read, facts held
    "ledger.window": lambda args, result: (len(result), len(args[0].facts)),
    # presentations, total length of the stored stabilization sign tuples
    "expansion.expand": lambda args, result: (
        len(result), sum(len(c.stab_signs) for p in result for c in p.components)),
}


def _package_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]


def instrument(lib, tracer: Tracer) -> list:
    """Wrap every traced function of the imported package; returns the undo
    list for `undo`."""
    modules = _package_modules()
    undo = []
    for name, module, attr in FUNCTIONS:
        original = getattr(getattr(lib, module), attr)
        wrapped = tracer.wrap(name, original, _SIZES.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
    for name, module, cls_name, attr in METHODS:
        cls = getattr(getattr(lib, module), cls_name)
        descriptor = cls.__dict__[attr]
        if isinstance(descriptor, classmethod):
            replacement = classmethod(tracer.wrap(name, descriptor.__func__))
        else:
            replacement = tracer.wrap(name, descriptor, _SIZES.get(name))
        undo.append((cls, attr, descriptor))
        setattr(cls, attr, replacement)
    return undo


def undo(undo_list) -> None:
    for owner, key, original in reversed(undo_list):
        setattr(owner, key, original)


def self_times(spans: list[Span]) -> list[int]:
    """Per-span duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[Span]) -> dict:
    """Per-layer figures from one traced block of ops."""
    own = self_times(spans)
    calls: Counter = Counter()
    busy: Counter = Counter()
    self_ns: Counter = Counter()
    layer_self: Counter = Counter()
    layer_entry: Counter = Counter()
    errors: Counter = Counter()
    for s, t in zip(spans, own):
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        self_ns[s.name] += t
        layer_self[layer_of(s.name)] += t
        if s.parent is not None and spans[s.parent].name == "op":
            layer_entry[layer_of(s.name)] += s.end - s.start
        if s.error:
            errors[(s.name, s.error)] += 1

    def ms(ns):
        return ns / 1e6

    in_d3 = 0
    for s in spans:
        if s.name == "linalg.det_int":
            p = s.parent
            while p is not None and spans[p].name != "homology.d3_invariant":
                p = spans[p].parent
            in_d3 += p is not None
    op_ns = busy["op"]

    def sizes(name):
        return [sp.sizes for sp in spans if sp.name == name and sp.sizes]

    letters = sum(n for n, in sizes("openbook.homology_action"))
    windows = sizes("ledger.window")
    window_facts = sorted(facts for _, facts in windows)
    expansions = sizes("expansion.expand")
    rewrites = calls["openbook.lantern_rewrite"]
    out = {
        "linalg.det_int.calls": (calls["linalg.det_int"], "count"),
        "linalg.det_int.busy_ms": (ms(busy["linalg.det_int"]), "ms"),
        "linalg.signature_exact.busy_ms": (ms(busy["linalg.signature_exact"]), "ms"),
        "linalg.solve_exact.busy_ms": (ms(busy["linalg.solve_exact"]), "ms"),
        "linalg.matrix_n_max": (
            max((n for n, in sizes("linalg.det_int")), default=0), "count"),
        "linalg.det_calls_per_d3": (
            in_d3 / calls["homology.d3_invariant"] if calls["homology.d3_invariant"] else 0,
            "count"),
        "linalg.mat_mul_int.calls": (calls["linalg.mat_mul_int"], "count"),
        "linalg.mat_mul_int.busy_ms": (ms(busy["linalg.mat_mul_int"]), "ms"),
        "homology.linking_matrix.busy_ms": (ms(busy["homology.linking_matrix"]), "ms"),
        "homology.homology_data.self_ms": (ms(self_ns["homology.homology_data"]), "ms"),
        "homology.spin_c_evaluation.self_ms": (ms(self_ns["homology.spin_c_evaluation"]), "ms"),
        "homology.d3_invariant.self_ms": (ms(self_ns["homology.d3_invariant"]), "ms"),
        "expansion.expand.calls": (calls["expansion.expand"], "count"),
        "expansion.expand.busy_ms": (ms(busy["expansion.expand"]), "ms"),
        "expansion.negative_continued_fraction.busy_ms": (
            ms(busy["expansion.negative_continued_fraction"]), "ms"),
        "expansion.presentations": (sum(p for p, _ in expansions), "count"),
        "expansion.stab_signs_stored": (sum(st for _, st in expansions), "count"),
        "openbook.homology_action.busy_ms": (ms(busy["openbook.homology_action"]), "ms"),
        "openbook.letters_applied": (letters, "count"),
        "openbook.us_per_letter": (
            busy["openbook.homology_action"] / 1e3 / letters if letters else 0, "us"),
        "openbook.lantern_rewrite.calls": (rewrites, "count"),
        "openbook.lantern_rewrite.busy_ms": (ms(busy["openbook.lantern_rewrite"]), "ms"),
        "openbook.lantern_mismatch_frac": (
            errors[("openbook.lantern_rewrite", "PatternMismatch")] / rewrites
            if rewrites else 0, "ratio"),
        "openbook.giroux.busy_ms": (
            ms(busy["openbook.giroux_stabilize"] + busy["openbook.giroux_destabilize"]), "ms"),
        "openbook.cyclic_words_equal.busy_ms": (ms(busy["openbook.cyclic_words_equal"]), "ms"),
        "ledger.assert_fact.calls": (calls["ledger.assert_fact"], "count"),
        "ledger.assert_fact.busy_ms": (ms(busy["ledger.assert_fact"]), "ms"),
        "ledger.window.busy_ms": (ms(busy["ledger.window"]), "ms"),
        "ledger.framings_read": (sum(w for w, _ in windows), "count"),
        "ledger.facts_at_read_p50": (
            window_facts[len(window_facts) // 2] if window_facts else 0, "count"),
        "ledger.contradictions": (errors[("ledger.assert_fact", "Contradiction")], "count"),
    }
    # Share of op time: self time in the layer, and time inside the calls
    # the benchmark makes into the layer (children in other layers included).
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = (layer_self[layer] / op_ns if op_ns else 0, "ratio")
        out[f"{layer}.busy_frac"] = (layer_entry[layer] / op_ns if op_ns else 0, "ratio")
    return out
