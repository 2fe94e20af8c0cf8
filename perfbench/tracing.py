"""Spans and per-layer counts recorded from outside the library.

``Tracer.install`` wraps the module-level functions of the traced ttriem
modules and rebinds every name that refers to one of them in any loaded
ttriem module (``baselines`` imports ``riemannian_grad_tt`` by name, ``tt``
imports ``qr_thin``, and so on), so no call slips past through a stale
binding.  The wrappers do nothing but call through while the tracer is
inactive.  Spans are kept in memory and written out once, at the end.
"""

import json
import sys
import time
import weakref

import numpy as np

MODULES = ("ad", "coreops", "ttmanifold", "matrix", "tt", "dense", "objectives", "baselines")

# Functions outside a module's __all__ that are layer boundaries in their
# own right.
EXTRA = {
    "ttmanifold": ("_block_cores", "_apply_gauge", "_tape_gauge"),
    "ad": ("add_n",),
}

# Tape operations: each records the megabytes of the value it returns.
AD_OPS = ("contract", "reshape", "transpose", "concat", "slice_along", "add", "sub",
          "mul", "div", "neg", "exp", "log", "sin", "cos", "sigmoid", "softplus",
          "reduce_sum", "gather_mode", "scatter_mode", "batch_matmul", "add_n",
          "stop_gradient")

def _shape(x):
    value = getattr(x, "value", x)
    return np.shape(value)


def _nbytes(x):
    value = getattr(x, "value", x)
    return getattr(value, "nbytes", 0)


def _contract_gflop(a, b, axes, *_):
    sa, sb = _shape(a), _shape(b)
    ca = {int(p) for p, _ in axes}
    cb = {int(q) for _, q in axes}
    free_a = np.prod([n for i, n in enumerate(sa) if i not in ca], dtype=float)
    free_b = np.prod([n for i, n in enumerate(sb) if i not in cb], dtype=float)
    summed = np.prod([sa[int(p)] for p, _ in axes], dtype=float)
    return 2.0 * free_a * free_b * summed / 1e9


class Tracer:
    """Records one span per call of a wrapped function while active."""

    def __init__(self):
        self.active = False
        self.names = []  # function id -> "<module>.<function>"
        self.spans = []  # (function id, round, start, end, parent span)
        self.out_bytes = {}  # function id -> bytes returned
        self.gflop = 0.0
        self.tape = {"nodes_forward": 0, "nodes_sweep1": 0, "nodes_sweep2": 0, "bytes": 0}
        self.round = 0
        self.eval_s = 0.0
        self.eval_calls = 0
        self._stack = []
        self._sweeps = weakref.WeakKeyDictionary()  # tape -> (sweeps done, nodes counted)

    # -- installation -----------------------------------------------------

    def install(self, objectives=()):
        """Wrap the traced modules' functions and each objective's evaluate."""
        originals = {}
        for short in MODULES:
            module = sys.modules[f"ttriem.{short}"]
            public = getattr(module, "__all__", [])
            for name in list(public) + list(EXTRA.get(short, ())):
                fn = getattr(module, name, None)
                if callable(fn) and not isinstance(fn, type) and id(fn) not in originals:
                    originals[id(fn)] = self._wrap(fn, f"{short}.{name}", short == "ad" and name)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "ttriem"]:
            for name, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, name, originals[id(value)])
        for obj in objectives:
            # Objective is a frozen dataclass; the wrapper replaces its
            # evaluate field in place so every holder of obj sees it.
            object.__setattr__(obj, "evaluate", self._wrap_evaluate(obj.evaluate))

    def _wrap(self, fn, qualname, ad_name):
        fid = len(self.names)
        self.names.append(qualname)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        record_bytes = ad_name in AD_OPS
        is_contract = ad_name == "contract"
        is_grad = ad_name == "grad"
        out_bytes = self.out_bytes

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tape_len = len(args[0].nodes) if is_grad else 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, self.round, t0, t1, parent)
            if record_bytes:
                out_bytes[fid] = out_bytes.get(fid, 0) + _nbytes(out)
            if is_contract:
                self.gflop += _contract_gflop(*args, **kwargs)
            if is_grad:
                self._count_sweep(args[0], tape_len)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def _count_sweep(self, tape, before):
        """Tape nodes recorded before the first sweep and by each sweep."""
        sweeps, counted = self._sweeps.get(tape, (0, 0))
        after = len(tape.nodes)
        if sweeps == 0:
            self.tape["nodes_forward"] += before
            self.tape["nodes_sweep1"] += after - before
        else:
            self.tape["nodes_sweep2"] += after - before
        self.tape["bytes"] += sum(
            n.value.nbytes for n in tape.nodes[counted:] if n.value.flags.owndata
        )
        self._sweeps[tape] = (sweeps + 1, after)

    def _wrap_evaluate(self, fn):
        """Time untaped evaluations of an objective (no tape variable in the cores)."""

        def evaluate(cores):
            if not self.active or any(hasattr(c, "tape") for c in cores):
                return fn(cores)
            t0 = time.perf_counter()
            out = fn(cores)
            self.eval_s += time.perf_counter() - t0
            self.eval_calls += 1
            return out

        return evaluate

    # -- results ----------------------------------------------------------

    def function_stats(self):
        """Per function: calls, total seconds, self seconds, bytes returned."""
        n = len(self.names)
        calls = np.zeros(n)
        total = np.zeros(n)
        child = np.zeros(len(self.spans))
        for fid, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        selfs = np.zeros(n)
        for i, (fid, _, t0, t1, _) in enumerate(self.spans):
            calls[fid] += 1
            total[fid] += t1 - t0
            selfs[fid] += t1 - t0 - child[i]
        return {
            name: {"calls": calls[i], "total_s": total[i], "self_s": selfs[i],
                   "out_bytes": self.out_bytes.get(i, 0)}
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path, meta):
        """Write all spans as one JSON document (times in ns from the first span)."""
        t_first = min((s[2] for s in self.spans), default=0.0)
        doc = {
            "meta": meta,
            "names": self.names,
            "fields": ["function", "round", "start_ns", "end_ns", "parent"],
            "spans": [[f, r, int((a - t_first) * 1e9), int((b - t_first) * 1e9), p]
                      for f, r, a, b, p in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
