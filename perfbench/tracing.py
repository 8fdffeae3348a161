"""Span and counter tracing around prosogate's public entry points.

The tracer patches functions from outside the package: every module
attribute of a loaded ``prosogate`` module that is bound to a traced
function (``grammar.py`` imports ``copy_fs`` by name, for instance) is
replaced by a wrapper while the tracer is installed, and restored on
uninstall. The program itself carries no instrumentation.

``copy_fs``, ``unify_mut`` and ``resolve`` recurse through the module
global, so their wrappers see every node: each call is counted, but only
the outermost call of a recursion opens a span and is timed.

Spans are kept in memory as parallel arrays (name, parent, root, start,
end) and written out once, by :meth:`Tracer.save`. Each set-up and each
operation of the benchmark is a root span; the spans below it belong to
it. Counters are plain integers keyed by metric name and are reset at
every root, so two operations that do the same work give byte-identical
counter blocks.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from prosogate import chart, corpus, evaluation, fs, grammar, mlp, prosody

# (owner, attribute, span name, kind). Kinds: "nodes" for the recursive
# fs walkers, otherwise the name of the counting rule in _make_wrapper.
TARGETS = [
    (fs, "copy_fs", "fs.copy", "nodes"),
    (fs, "unify_mut", "fs.unify", "nodes"),
    (fs, "resolve", "fs.resolve", "nodes"),
    (fs, "canonical", "fs.canonical", "calls"),
    (grammar.RuleSchema, "apply", "grammar.apply", "apply"),
    (chart.Chart, "add", "chart.add", "add"),
    (chart, "parse", "chart.parse", "parse"),
    (prosody, "extract_features", "prosody.extract", "calls"),
    (mlp.MlpClassifier, "classify", "mlp.classify", "calls"),
    (mlp.MlpClassifier, "gradients", "mlp.gradients", "calls"),
    (mlp, "train", "mlp.train", "calls"),
    (corpus, "loads_corpus", "corpus.loads", "loads"),
    (evaluation, "score_trace_hypotheses", "evaluation.score", "calls"),
]
ROOT_NAMES = ("bench.setup", "bench.op")
SPAN_NAMES = ROOT_NAMES + tuple(t[2] for t in TARGETS)
_CODE = {name: i for i, name in enumerate(SPAN_NAMES)}


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.schema_labels = {}  # id(RuleSchema) -> "index.name"
        self._name = array("H")
        self._parent = array("l")
        self._root = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        idx = len(self._name)
        stack = self._stack
        self._name.append(_CODE[name])
        self._parent.append(stack[-1] if stack else -1)
        self._root.append(stack[0] if stack else idx)
        self._end.append(0.0)
        stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name):
        """One set-up or operation; yields the counter block it fills."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self.counts.clear()
        block = {}
        idx = self._open(name)
        try:
            yield block
        finally:
            self._close(idx)
            block.update(self.counts)
            block["_root"] = idx

    # -- patching ------------------------------------------------------

    def name_schemata(self, schemata):
        self.schema_labels = {id(s): f"{i}.{s.name}"
                              for i, s in enumerate(schemata)}

    def _make_wrapper(self, fn, name, kind):
        counts = self.counts
        open_, close = self._open, self._close

        calls = name + "_calls"
        if kind == "nodes":
            depth = [0]
            nodes, failures = name + "_nodes", name + "_failures"

            def wrapper(*args, **kwargs):
                counts[nodes] += 1
                if depth[0]:
                    return fn(*args, **kwargs)
                counts[calls] += 1
                depth[0] = 1
                idx = open_(name)
                try:
                    return fn(*args, **kwargs)
                except fs.UnificationFailure:
                    counts[failures] += 1
                    raise
                finally:
                    close(idx)
                    depth[0] = 0
            return wrapper

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            idx = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if kind == "apply":
                label = self.schema_labels[id(args[0])]
                counts["grammar.apply_attempts." + label] += 1
                if out is not None:
                    counts["grammar.apply_successes." + label] += 1
            elif kind == "add" and not out[1]:
                counts["chart.add_packed"] += 1
            elif kind == "parse":
                for kind_ in ("lexical", "empty", "derived"):
                    counts["chart.edges_" + kind_] += out.stats[kind_ + "_edges"]
                counts["chart.proposed_sites"] += out.stats["proposed_sites"]
                counts["chart.readings"] += len(out.readings)
            elif kind == "loads":
                counts["corpus.bytes"] += len(args[0].encode("utf-8"))
            return out
        return wrapper

    def install(self):
        """Patch every binding of every target in the loaded package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "prosogate"
                                         or n.startswith("prosogate."))]
        for owner, attr, name, kind in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._make_wrapper(original, name, kind)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------

    def times(self, root_idx):
        """Seconds per span name below one root: total time of the
        outermost spans, and self time (total minus child spans)."""
        names = np.frombuffer(self._name, dtype=np.uint16)
        roots = np.frombuffer(self._root, dtype=np.int64)
        parents = np.frombuffer(self._parent, dtype=np.int64)
        dur = (np.frombuffer(self._end, dtype=np.float64)
               - np.frombuffer(self._start, dtype=np.float64))
        mine = roots == root_idx
        child = np.bincount(parents[mine & (parents >= 0)],
                            weights=dur[mine & (parents >= 0)],
                            minlength=len(dur))
        selfs = dur - child
        total = np.bincount(names[mine], weights=dur[mine],
                            minlength=len(SPAN_NAMES))
        own = np.bincount(names[mine], weights=selfs[mine],
                          minlength=len(SPAN_NAMES))
        return ({n: float(total[i]) for i, n in enumerate(SPAN_NAMES)},
                {n: float(own[i]) for i, n in enumerate(SPAN_NAMES)})

    def save(self, path):
        """Write every span recorded so far as a NumPy ``.npz`` archive:
        arrays ``name`` (index into ``names``), ``parent`` and ``root``
        (span indices, -1 for none), ``start`` and ``end`` (seconds)."""
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES),
            name=np.frombuffer(self._name, dtype=np.uint16),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            root=np.frombuffer(self._root, dtype=np.int64),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64))
        return len(self._name)
