"""Outside-in per-layer tracing of the ``omq`` modules.

``install`` replaces each traced function with a wrapper in every ``omq.*``
module that binds it (the same function object, so ``classify`` is wrapped
in ``omq.classify``, ``omq.rewrite``, ``omq.evaluate`` and the others at
once). Nothing under ``src/`` changes.

Two kinds of wrapper:

* a span opens and closes around each call (for a generator, around each
  ``next()``). Spans sit on a stack with parent ids; a span's self time is
  its duration minus the time its child spans cover, and it is charged to
  the span's layer. Spans of one op share the op's id.
* a counter only counts calls. It is used for functions called too often
  for a span, whose time already belongs to the enclosing layer.

Wrappers record only while an op is open, so set-up and reference checks
leave no trace. Span records are kept in memory up to ``SPAN_CAP``; the
per-layer sums cover every span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 20_000

# (module, function, layer): a span per call
SPANNED = (
    ("omq.parser", "parse_program", "parser"),
    ("omq.classify", "classify", "classify"),
    ("omq.rewrite", "xrewrite", "rewrite"),
    ("omq.chase", "chase_nr", "chase"),
    ("omq.chase", "find_triggers", "chase"),
    ("omq.homs", "homomorphisms", "homs"),
    ("omq.homs", "has_homomorphism", "homs"),
    ("omq.homs", "index_by_predicate", "homs"),
    ("omq.evaluate", "certain_answers", "evaluate"),
    ("omq.contain", "contains", "contain"),
    ("omq.contain", "is_unsatisfiable", "contain"),
    ("omq.apps", "distributes", "apps"),
    ("omq.apps", "distribution_definitional_check", "apps"),
    ("omq.testkit", "enumerate_databases", "testkit"),
)

# (module, function, only_in): a call counter; ``only_in`` limits the wrapping to one
# binding module, for counts that depend on the caller
COUNTED = (
    ("omq.rewrite", "rewrite_step", None),
    ("omq.rewrite", "factorize_step", None),
    ("omq.rewrite", "is_applicable", None),
    ("omq.rewrite", "is_factorizable", None),
    ("omq.rewrite", "cq_isomorphic", None),
    ("omq.chase", "normalize_tgds", "omq.rewrite"),
)


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.stack: list[list] = []  # [span id, layer, start, child time]
        self.next_id = 1
        self.spans: list[tuple] = []  # (id, parent, op, layer, fn, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: Counter = Counter()  # inclusive time by function
        self.calls: Counter = Counter()  # by function
        self.counts: Counter = Counter()  # derived counters, by name
        self.ops = 0
        self.op_s = 0.0

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: str):
        self.stack.append([self.next_id, layer, time.perf_counter(), 0.0])
        self.next_id += 1

    def _exit(self, fn: str):
        end = time.perf_counter()
        span_id, layer, start, child = self.stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        self.total_s[fn] += dur
        if self.stack:
            self.stack[-1][3] += dur
        if len(self.spans) < SPAN_CAP:
            parent = self.stack[-1][0] if self.stack else 0
            self.spans.append((span_id, parent, self.op_id, layer, fn, start, end))

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.active = True
        self._enter("bench")

    def end_op(self):
        start = self.stack[0][2]
        self._exit("op")
        self.active = False
        self.ops += 1
        self.op_s += time.perf_counter() - start

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, layer: str, key: str):
        tracer = self
        observe = OBSERVERS.get(key)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                tracer.calls[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    tracer._enter(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._exit(key)
                        return
                    except BaseException:
                        tracer._exit(key)
                        raise
                    tracer._exit(key)
                    tracer.counts[key + ".yield"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(key)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result
        return wrapper

    def _counter(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every traced function in every ``omq`` module binding it."""
        for home, name, layer in SPANNED:
            self._replace(home, name, lambda f, key, layer=layer: self._span(f, layer, key))
        for home, name, only_in in COUNTED:
            self._replace(home, name, self._counter, only_in)

    @staticmethod
    def _replace(home: str, name: str, make, only_in: str | None = None):
        original = getattr(sys.modules.get(home), name, None)
        if original is None:
            return  # the function is gone; its counters read 0
        wrapped = make(original, f"{home.rsplit('.', 1)[-1]}.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "omq" and not mod_name.startswith("omq."):
                continue
            if only_in is not None and mod_name != only_in:
                continue
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)


# observers run after a spanned call returns: (counts, args, kwargs, result)


def _observe_parse(counts, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counts["parser.bytes"] += len(text.encode())


def _observe_index(counts, args, kwargs, result):
    counts["homs.indexed_facts"] += _size(args[0] if args else kwargs["facts"])


def _observe_len(name):
    def observe(counts, args, kwargs, result):
        counts[name] += _size(result)
    return observe


def _observe_chase(counts, args, kwargs, result):
    counts["chase.fires"] += result.steps


OBSERVERS = {
    "parser.parse_program": _observe_parse,
    "homs.index_by_predicate": _observe_index,
    "chase.find_triggers": _observe_len("chase.triggers"),
    "rewrite.xrewrite": _observe_len("rewrite.disjuncts_out"),
    "chase.chase_nr": _observe_chase,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, averaged per op: name -> (value, unit)."""
    n = max(t.ops, 1)
    c, k, s = t.calls, t.counts, t.self_s
    rewrite_steps = c["rewrite.rewrite_step"] + c["rewrite.factorize_step"]
    return {
        "parser.calls": (c["parser.parse_program"] / n, "count/op"),
        "parser.self_s": (s["parser"] / n, "s/op"),
        "parser.bytes_per_s": (_ratio(k["parser.bytes"], s["parser"]), "B/s"),
        "classify.calls": (c["classify.classify"] / n, "count/op"),
        "classify.self_s": (s["classify"] / n, "s/op"),
        "evaluate.calls": (c["evaluate.certain_answers"] / n, "count/op"),
        "evaluate.self_s": (s["evaluate"] / n, "s/op"),
        "rewrite.calls": (c["rewrite.xrewrite"] / n, "count/op"),
        "rewrite.computed": (c["chase.normalize_tgds"] / n, "count/op"),
        "rewrite.memo_hit_ratio": (
            1.0 - _ratio(c["chase.normalize_tgds"], c["rewrite.xrewrite"])
            if c["rewrite.xrewrite"] else 0.0, "ratio"),
        "rewrite.self_s": (s["rewrite"] / n, "s/op"),
        "rewrite.steps": (rewrite_steps / n, "count/op"),
        "rewrite.applicable_ratio": (
            _ratio(c["rewrite.rewrite_step"], c["rewrite.is_applicable"]), "ratio"),
        "rewrite.factorizable_ratio": (
            _ratio(c["rewrite.factorize_step"], c["rewrite.is_factorizable"]),
            "ratio"),
        "rewrite.dedup_probes": (c["rewrite.cq_isomorphic"] / n, "count/op"),
        "rewrite.disjuncts_out": (k["rewrite.disjuncts_out"] / n, "count/op"),
        "homs.calls": (c["homs.homomorphisms"] / n, "count/op"),
        "homs.results": (k["homs.homomorphisms.yield"] / n, "count/op"),
        "homs.self_s": (s["homs"] / n, "s/op"),
        "homs.index_builds": (c["homs.index_by_predicate"] / n, "count/op"),
        "homs.indexed_facts": (k["homs.indexed_facts"] / n, "count/op"),
        "chase.runs": (c["chase.chase_nr"] / n, "count/op"),
        "chase.self_s": (s["chase"] / n, "s/op"),
        "chase.triggers": (k["chase.triggers"] / n, "count/op"),
        "chase.head_checks": (c["homs.has_homomorphism"] / n, "count/op"),
        "chase.fires": (k["chase.fires"] / n, "count/op"),
        "chase.fire_ratio": (_ratio(k["chase.fires"], k["chase.triggers"]), "ratio"),
        "contain.calls": ((c["contain.contains"] + c["contain.is_unsatisfiable"]) / n,
                          "count/op"),
        "contain.self_s": (s["contain"] / n, "s/op"),
        "apps.decide_s": (t.total_s["apps.distributes"] / n, "s/op"),
        "apps.verify_s": (t.total_s["apps.distribution_definitional_check"] / n,
                          "s/op"),
        "testkit.databases": (k["testkit.enumerate_databases.yield"] / n,
                              "count/op"),
        "testkit.self_s": (s["testkit"] / n, "s/op"),
        "bench.self_s": (s["bench"] / n, "s/op"),
        "trace.op_s": (t.op_s / n, "s/op"),
    }
