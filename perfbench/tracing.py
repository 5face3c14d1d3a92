"""Per-layer tracing for the ncdb benchmark, installed from outside the package.

Nothing under ``src/ncdb`` is modified.  ``Tracer.install`` replaces public
entry points with wrappers at every place they are bound: a module-level
function is swapped in *every* ``ncdb.*`` module whose globals hold it (so
``from .axioms import check_weight`` in ``classify`` and ``localize`` is
covered, as is the package re-export), and methods are swapped on their class.

* Spanned callables record calls, inclusive time and self time (inclusive
  minus the time of spanned callees).  Spans are aggregated as they close,
  keyed by layer name, rather than kept as a list: one ``verify`` pass closes
  about 10^5 of them.
* Hot methods (``_mb_ids``, ``_letter_raw``; about 5*10^5 and 10^6 calls per
  mdbI battery) are counted only.
* ``BracketSpec`` and ``MatrixPoint`` instances are registered when built, so
  their memo caches can be read after each op at no cost to the op.
* A ``gc.callbacks`` hook times collections inside ops.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# layer name -> (module, dotted attribute) of the callable that is spanned
SPANNED = {
    "cli.main": ("ncdb.cli", "main"),
    "speclang.parse": ("ncdb.speclang", "parse"),
    "speclang.to_spec": ("ncdb.speclang", "SpecDocument.to_spec"),
    "speclang.render": ("ncdb.speclang", "render"),
    "speclang.doc_from_spec": ("ncdb.speclang", "doc_from_spec"),
    "localize.localize": ("ncdb.localize", "localize"),
    "classify.build": ("ncdb.classify", "build"),
    "axioms.battery": ("ncdb.axioms", "modified_double_poisson_battery"),
    "axioms.infer_weight": ("ncdb.axioms", "infer_weight"),
    "axioms.check_weight": ("ncdb.axioms", "check_weight"),
    "axioms.check_poisson_property": ("ncdb.axioms", "check_poisson_property"),
    "axioms.check_double_poisson": ("ncdb.axioms", "check_double_poisson"),
    "axioms.check_h0_skew": ("ncdb.axioms", "check_h0_skew"),
    "axioms.check_jacobi": ("ncdb.axioms", "check_jacobi"),
    "bracket.mb_words": ("ncdb.bracket", "BracketSpec._mb_words"),
    "bracket.dbr_words": ("ncdb.bracket", "BracketSpec._dbr_words"),
    "repspace.check_induced_poisson": ("ncdb.repspace", "check_induced_poisson"),
    "repspace.point_random": ("ncdb.repspace", "MatrixPoint.random"),
    "repspace.word_trace": ("ncdb.repspace", "MatrixPoint.word_trace"),
}

# layer name -> method that is only counted
COUNTED = {
    "bracket.mb_ids": ("ncdb.bracket", "BracketSpec._mb_ids"),
    "bracket.letter_raw": ("ncdb.bracket", "BracketSpec._letter_raw"),
}

# sweeps whose report params give the number of cells (pairs + triples)
SWEEPS = ("axioms.check_h0_skew", "axioms.check_jacobi")


def _resolve(module, dotted):
    owner = sys.modules[module]
    parts = dotted.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Aggregated spans and counters for one pass; ``reset`` starts the next."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive, self
        self.counts = Counter()
        self.specs = []
        self.points = []
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._stack = []
        self._gc_start = None
        self.active = False
        self.sites = 0

    def reset(self):
        # cleared in place: the installed wrappers hold these objects
        self.stats.clear()
        self.counts.clear()
        self.specs.clear()
        self.points.clear()
        self.gc_s = 0.0
        self.gc_gen2 = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        stack = self._stack
        stats = self.stats
        tracer = self
        clock = perf_counter
        sweep = name in SWEEPS

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                s = stats[name]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if sweep:
                tracer.counts["axioms.cells"] += out.params.get("pairs", 0) + out.params.get("triples", 0)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _swap(self, module, dotted, make):
        owner, attr = _resolve(module, dotted)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            self.sites += 1
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "ncdb" and not name.startswith("ncdb."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self.sites += 1

    def install(self):
        """Wrap every traced callable at every site that binds it."""
        for name, (module, dotted) in SPANNED.items():
            self._swap(module, dotted, lambda fn, n=name: self._span(n, fn))
        for name, (module, dotted) in COUNTED.items():
            self._swap(module, dotted, lambda fn, n=name: self._count(n, fn))

        tracer = self
        spec_cls = sys.modules["ncdb.bracket"].BracketSpec
        spec_init = spec_cls.__init__

        def init(self, *args, **kwargs):
            spec_init(self, *args, **kwargs)
            tracer.specs.append(self)

        spec_cls.__init__ = init
        point_cls = sys.modules["ncdb.repspace"].MatrixPoint
        point_post = point_cls.__post_init__

        def post_init(self):
            point_post(self)
            tracer.points.append(self)

        point_cls.__post_init__ = post_init
        gc.callbacks.append(self._on_gc)
        return self

    def _on_gc(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_s += perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- readings ---------------------------------------------------------------

    def self_s(self, *names):
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def inclusive_s(self, *names):
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def after_op(self, cnf_info):
        """Fold the caches of this op's specs and points into the counters."""
        c = self.counts
        for spec in self.specs:
            c["bracket.mb_id_entries"] += len(spec._mb_id_cache)
            c["bracket.mb_entries"] += len(spec._mb_cache)
            c["bracket.words_interned"] += len(spec._id_words)
            c["bracket.letter_entries"] += len(spec._letter_cache)
            for u in spec.table.values():
                for coef in u.terms.values():
                    c["speclang.coefs"] += 1
                    c["speclang.fraction_coefs"] += isinstance(coef, Fraction)
        for p in self.points:
            c["repspace.traces_cached"] += len(p._traces)
            c["repspace.matrices_cached"] += len(p._words)
        c["freealg.cnf_entries"] += cnf_info.currsize
        c["freealg.cnf_hits"] += cnf_info.hits
        c["freealg.cnf_misses"] += cnf_info.misses
        self.specs.clear()
        self.points.clear()

    def layer_metrics(self):
        """Per-layer values of the pass traced since the last ``reset``."""
        c = self.counts
        sweep_s = self.inclusive_s(*SWEEPS)
        mb_ids = c["bracket.mb_ids"]
        cnf_lookups = c["freealg.cnf_hits"] + c["freealg.cnf_misses"]
        return {
            "bracket.mb_words_s": self.self_s("bracket.mb_words"),
            "bracket.mb_words_calls": self.calls("bracket.mb_words"),
            "bracket.mb_ids_calls": mb_ids,
            "bracket.mb_ids_hit_ratio": 1 - c["bracket.mb_id_entries"] / mb_ids if mb_ids else 0.0,
            "bracket.mb_entries": c["bracket.mb_entries"],
            "bracket.letter_raw_calls": c["bracket.letter_raw"],
            "bracket.dbr_words_s": self.self_s("bracket.dbr_words"),
            "bracket.words_interned": c["bracket.words_interned"],
            "bracket.letter_entries": c["bracket.letter_entries"],
            "axioms.jacobi_self_s": self.self_s("axioms.check_jacobi"),
            "axioms.h0_skew_self_s": self.self_s("axioms.check_h0_skew"),
            "axioms.cells": c["axioms.cells"],
            "axioms.cells_per_s": c["axioms.cells"] / sweep_s if sweep_s else 0.0,
            "axioms.gen_check_s": self.self_s(
                "axioms.check_weight", "axioms.check_poisson_property",
                "axioms.infer_weight", "axioms.check_double_poisson", "axioms.battery",
            ),
            "freealg.cnf_entries": c["freealg.cnf_entries"],
            "freealg.cnf_hit_ratio": c["freealg.cnf_hits"] / cnf_lookups if cnf_lookups else 0.0,
            "speclang.fraction_coef_share": (
                c["speclang.fraction_coefs"] / c["speclang.coefs"] if c["speclang.coefs"] else 0.0
            ),
            "speclang.parse_s": self.self_s("speclang.parse", "speclang.to_spec"),
            "speclang.render_s": self.self_s("speclang.render", "speclang.doc_from_spec"),
            "repspace.word_trace_s": self.self_s("repspace.word_trace"),
            "repspace.check_self_s": self.self_s("repspace.check_induced_poisson"),
            "repspace.point_build_s": self.inclusive_s("repspace.point_random"),
            "repspace.traces_cached": c["repspace.traces_cached"],
            "repspace.matrices_cached": c["repspace.matrices_cached"],
            "classify.build_s": self.self_s("classify.build"),
            "classify.points": self.calls("classify.build"),
            "localize.localize_s": self.self_s("localize.localize"),
            "cli.self_s": self.self_s("cli.main"),
            "runtime.gc_s": self.gc_s,
            "runtime.gc_gen2": self.gc_gen2,
        }
