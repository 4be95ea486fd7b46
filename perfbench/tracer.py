"""Per-layer tracing from outside the library.

``Tracer`` wraps the library's public functions for the duration of a
``with`` block and restores them afterwards. Each wrapper is installed at
every module name bound to the original function object, which is where
its callers look it up: ``search`` imports ``enumerate_generators`` and
``max_usable_index`` by value, ``cli`` imports ``xlength`` and the witness
builders by value, and ``lengths`` reaches ``search`` through a lazy module
import, so the search entry points are patched as ``search`` module
attributes.

Layer calls are kept as spans ``[name, start, end, parent, leaf_s]`` in
memory; a span's self time is its duration minus its child spans and the
time of the hot leaf calls made directly inside it. Leaf calls
(``Word.__mul__``, ``__pow__``, ``abelianize``, the heuristic closure, each
step of generator enumeration) are too many to keep one by one; they are
counted and timed in aggregate instead.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter

# (module, attribute) -> span name. Grouping into layer metrics happens in
# ``layer_metrics``.
SPANS = {
    ("lengths", "xlength"): "lengths.xlength",
    ("lengths", "best_certificate_bound"): "lengths.certificate",
    ("lengths", "eval_certificate"): "lengths.certificate",
    ("lengths", "letters_factorization"): "lengths.witness",
    ("lengths", "shape_witness"): "lengths.witness",
    ("lengths", "block_witness"): "lengths.witness",
    ("lengths", "chain_witness"): "lengths.witness",
    ("lengths", "family_length"): "lengths.family",
    ("lengths", "verify_factorization"): "lengths.verify",
    ("search", "build_moves"): "search.build_moves",
    ("search", "make_heuristic"): "search.make_heuristic",
    ("search", "best_first"): "search.best_first",
    ("search", "deepening"): "search.deepening",
    ("genset", "max_usable_index"): "genset.max_usable_index",
    ("algebra", "convolve"): "algebra.convolve",
    ("algebra", "omega_norm"): "algebra.norm",
    ("algebra", "pair_omega"): "algebra.norm",
    ("algebra", "chain_product"): "algebra.chain_product",
    ("algebra", "sandwich_norm_bound"): "algebra.sandwich",
    ("algebra", "sandwich_decay_bound"): "algebra.sandwich",
    ("algebra", "spectral_probe"): "algebra.probe",
    ("cli", "main"): "cli.main",
}

# (module, class, method) -> leaf name
LEAF_METHODS = {
    ("words", "Word", "__mul__"): "words.mul",
    ("words", "Word", "__pow__"): "words.pow",
    ("words", "Word", "abelianize"): "words.abelianize",
}

# (module, class, method) -> span name
SPAN_METHODS = {
    ("algebra", "ExpSum", "compare"): "algebra.compare",
}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf_depth = 0
        self.leaves = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counts = defaultdict(int)
        self.cutoff_index = 0
        self._heuristic_seen: set | None = None
        self._undo: list[tuple[object, str, object]] = []
        self.patched_sites: list[str] = []

    # --- installing and removing wrappers ----------------------------------------

    def __enter__(self):
        for (module, attr), name in SPANS.items():
            original = getattr(getattr(self.lib, module), attr)
            self._bind_everywhere(original, self._span(name, original))
        original = self.lib.genset.enumerate_generators
        self._bind_everywhere(original, self._enumeration(original))
        for (module, cls, attr), name in LEAF_METHODS.items():
            owner = getattr(getattr(self.lib, module), cls)
            self._set(owner, attr, self._leaf(name, getattr(owner, attr)))
        for (module, cls, attr), name in SPAN_METHODS.items():
            owner = getattr(getattr(self.lib, module), cls)
            self._set(owner, attr, self._span(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._fold_heuristic()
        return False

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
        self.patched_sites.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def _bind_everywhere(self, original, wrapper):
        sites = 0
        for module in self.lib.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    sites += 1
        if not sites:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")

    # --- wrappers -------------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        on_result = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            record = [name, _clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()
            if on_result is not None:
                result = on_result(result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        tracer = self
        totals = self.leaves[name]

        def wrapper(*args, **kwargs):
            tracer.leaf_depth += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                tracer.leaf_depth -= 1
                totals[0] += 1
                totals[1] += dt
                if not tracer.leaf_depth and tracer.stack:
                    tracer.spans[tracer.stack[-1]][4] += dt

        return wrapper

    def _enumeration(self, fn):
        """Times each step of the generator and counts what it yields."""
        step = self._leaf("genset.enumerate", lambda it: next(it, None))
        counts = self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while (gen := step(it)) is not None:
                counts["genset.generators_enumerated"] += 1
                yield gen

        return wrapper

    # --- result hooks, looked up by span name ---------------------------------------

    def _after_search_build_moves(self, moves):
        self.counts["search.moves"] += len(moves.moves)
        return moves

    def _after_search_best_first(self, outcome):
        self.counts["search.best_first_nodes"] += outcome.nodes
        return outcome

    def _after_search_deepening(self, outcome):
        self.counts["search.deepening_nodes"] += outcome.nodes
        return outcome

    def _after_genset_max_usable_index(self, cutoff):
        if cutoff is not None and cutoff > self.cutoff_index:
            self.cutoff_index = cutoff
        return cutoff

    def _after_search_make_heuristic(self, h):
        """Counts calls and distinct arguments of the returned closure."""
        self._fold_heuristic()
        seen = self._heuristic_seen = set()
        timed = self._leaf("search.heuristic", h)

        def traced_h(r):
            seen.add(r)
            return timed(r)

        return traced_h

    def _fold_heuristic(self):
        # one search runs at a time, so the previous closure is finished
        if self._heuristic_seen is not None:
            self.counts["search.heuristic_distinct"] += len(self._heuristic_seen)
            self._heuristic_seen = None

    # --- derived metrics ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start

        def outermost(names: set[str]):
            for i, (name, start, end, parent, _) in enumerate(spans):
                if name not in names:
                    continue
                p = parent
                while p >= 0 and spans[p][0] not in names:
                    p = spans[p][3]
                if p < 0:
                    yield i, end - start

        def inclusive(*names: str) -> float:
            return sum(d for _, d in outermost(set(names)))

        def self_time(name: str) -> float:
            return sum(
                end - start - child_s[i] - leaf
                for i, (n, start, end, _, leaf) in enumerate(spans)
                if n == name
            )

        def calls(name: str) -> int:
            return sum(1 for span in spans if span[0] == name)

        c, leaves = self.counts, self.leaves
        h_calls, h_s = leaves["search.heuristic"]
        best_first_s = inclusive("search.best_first")
        deepening_s = inclusive("search.deepening")
        nodes = c["search.best_first_nodes"] + c["search.deepening_nodes"]
        engine_s = best_first_s + deepening_s - h_s
        return {
            "search.heuristic_s": (h_s, "s"),
            "search.heuristic_calls": (h_calls, "count"),
            "search.heuristic_distinct": (c["search.heuristic_distinct"], "count"),
            "search.heuristic_hit_ratio": (
                1 - c["search.heuristic_distinct"] / h_calls if h_calls else 0.0,
                "ratio",
            ),
            "search.best_first_nodes": (c["search.best_first_nodes"], "count"),
            "search.deepening_nodes": (c["search.deepening_nodes"], "count"),
            "search.best_first_s": (best_first_s, "s"),
            "search.deepening_s": (deepening_s, "s"),
            "search.node_us": (engine_s / nodes * 1e6 if nodes else 0.0, "us"),
            "search.moves": (c["search.moves"], "count"),
            "search.build_moves_s": (inclusive("search.build_moves"), "s"),
            "lengths.certificate_s": (inclusive("lengths.certificate"), "s"),
            "lengths.witness_s": (inclusive("lengths.witness"), "s"),
            "lengths.family_s": (inclusive("lengths.family"), "s"),
            "lengths.verify_s": (inclusive("lengths.verify"), "s"),
            "lengths.verify_calls": (calls("lengths.verify"), "count"),
            "genset.generators_enumerated": (c["genset.generators_enumerated"], "count"),
            "genset.enumerate_s": (leaves["genset.enumerate"][1], "s"),
            "genset.cutoff_index": (self.cutoff_index, "index"),
            "words.mul_calls": (leaves["words.mul"][0], "count"),
            "words.mul_s": (leaves["words.mul"][1], "s"),
            "words.pow_calls": (leaves["words.pow"][0], "count"),
            "words.pow_s": (leaves["words.pow"][1], "s"),
            "words.abelianize_calls": (leaves["words.abelianize"][0], "count"),
            "algebra.convolve_s": (inclusive("algebra.convolve"), "s"),
            "algebra.norm_s": (inclusive("algebra.norm"), "s"),
            "algebra.compare_s": (inclusive("algebra.compare"), "s"),
            "algebra.chain_product_s": (inclusive("algebra.chain_product"), "s"),
            "algebra.sandwich_s": (inclusive("algebra.sandwich"), "s"),
            "algebra.probe_s": (inclusive("algebra.probe"), "s"),
            "cli.report_s": (self_time("cli.main"), "s"),
        }
