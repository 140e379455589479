"""Outside-in span tracer for the sparsegp layers.

The tracer replaces a layer's public functions by wrappers at their module
attribute (``chol.factor``, ``kernels.gram``, ...).  Every cross-layer call in
sparsegp resolves through the module, and so do calls inside a module (a
function's globals are its module's namespace), so the wrappers see every
call without any change to the library.  Wrappers exist only inside
:meth:`Tracer.installed`; on exit the original functions are put back.

Spans are kept in memory as flat int64 columns (name, start, end, parent,
cell) and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# Public functions wrapped per layer.  `bounds` is reported as one layer.
LAYERS = {
    "kernels": ("gram",),
    "chol": ("factor", "remove_index", "append_index", "rank_one_update", "log_det"),
    "gp_exact": ("sample_prior_outputs", "log_marginal_likelihood"),
    "svgp": (
        "feature_operators",
        "_whiten",
        "trace_gap",
        "lambda_max_gap",
        "elbo",
        "upper_bound",
        "refined_upper_bound",
        "kl_exact",
        "evaluate",
    ),
    "inducing": ("init_sampler", "advance", "kdpp_mcmc", "uniform_subset"),
    "bounds": ("lemma1", "lemma2_interval", "thm1", "thm2", "thm3", "thm4", "prop1_pointwise"),
}

# Exceptions counted as rejected work, named as attributes of the module.
# A pivot-floor failure is how the exchange chain rejects a proposal.
REJECTIONS = {"chol.append_index": "NotPositiveDefiniteError"}

CELL_SPAN = "harness.cell"


class Tracer:
    """Records nested spans and per-boundary counters for traced cells."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.cell = array("q")
        self.counters: Counter = Counter()
        self.cell_id = -1
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------------

    def name_id_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Start a span of the name with id `nid`; returns the span index."""
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell.append(self.cell_id)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id_of(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def self_times_ns(self) -> np.ndarray:
        """Per span: its duration minus the time its direct children cover."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        if np.any(end < start):
            raise RuntimeError("self times requested while a span is still open")
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0]
        )
        return dur - covered

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed self time and summed duration (s)."""
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=self.self_times_ns(), minlength=k) / 1e9
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        total_s = np.bincount(ids, weights=dur, minlength=k) / 1e9
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as flat columns (``numpy.savez``)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            cell=np.frombuffer(self.cell, dtype=np.int64),
        )

    # -- wrappers ------------------------------------------------------------

    def wrap(self, qualname: str, fn, rejection: type | None = None):
        """Return a wrapper of `fn` that records a span named `qualname`.

        A `rejection` exception raised by `fn` is counted as
        ``<qualname>.rejected`` and re-raised.
        """
        nid = self.name_id_of(qualname)
        before = _BEFORE.get(qualname)
        after = _AFTER.get(qualname)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(counters, fn, args, kwargs)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx)
                if rejection is not None and isinstance(exc, rejection):
                    counters[qualname + ".rejected"] += 1
                raise
            self.close(idx)
            if after is not None:
                after(counters, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every function in LAYERS for the modules given by layer name.

        The originals are restored on exit, also when the body raises.
        """
        saved = []
        try:
            for layer, fnames in LAYERS.items():
                module = modules[layer]
                for fname in fnames:
                    qualname = f"{layer}.{fname}"
                    original = getattr(module, fname)
                    rejection = REJECTIONS.get(qualname)
                    if rejection is not None:
                        rejection = getattr(module, rejection)
                    saved.append((module, fname, original))
                    setattr(module, fname, self.wrap(qualname, original, rejection))
            yield self
        finally:
            for module, fname, original in reversed(saved):
                setattr(module, fname, original)


# Counters taken at a boundary besides calls and self time.  A `before`
# hook may rewrite the call's arguments; an `after` hook reads the result.


def _count_gram(counters, K):
    counters["kernels.gram.elements"] += K.size


def _count_factor(counters, f):
    counters["chol.factor.flops"] += f.dim**3 / 3.0
    counters["chol.factor.jittered"] += int(f.jitter_used > 0)


def _observe_advance(counters, fn, args, kwargs):
    # Acceptance is read through the chain's own on_state hook: an accepted
    # swap appends the incoming index, so the last member changes.
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    state = bound.arguments["state"]
    user_hook = bound.arguments["on_state"]
    last = [state.indices[-1] if state.indices else None]

    def on_state(st):
        tail = st.indices[-1]
        if tail != last[0]:
            counters["inducing.advance.accepted"] += 1
            last[0] = tail
        if user_hook is not None:
            user_hook(st)

    bound.arguments["on_state"] = on_state
    counters["inducing.advance.steps"] += int(bound.arguments["steps"])
    return bound.args, bound.kwargs


_BEFORE = {"inducing.advance": _observe_advance}
_AFTER = {"kernels.gram": _count_gram, "chol.factor": _count_factor}
