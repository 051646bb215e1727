"""Span tracer that wraps bsvielab's public functions from outside.

The CLI imports layer functions with ``from .x import y``, so a wrapper is
bound under every name, in every package module, that refers to the
original function; patching only the defining module would silently miss
calls.  Spans (name, start, end, parent, operation) stay in memory and are
written out once, when the run ends.  Hot scalar methods (the delay
measures' mass queries) are counted, not spanned.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("config", "measures", "kernels", "girsanov", "terminal", "solver",
          "oracles", "cli")

# Public names left unwrapped: the CLI's command bodies are cli.main's own
# work, and snap_lag is a scalar helper called once per mass query.
SKIP = {"cli": ("cmd_",), "measures": ("snap_lag",)}

MEASURE_CLASSES = ("DelayMeasure", "DiracAt", "Uniform", "Atoms", "Mixture")


class Tracer:
    """Collects spans and per-operation counters while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.counters = {}       # op -> {counter name: value}
        self.op = None
        self._stack = []
        self._mass_depth = 0
        self._undo = []

    # -- recording -------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        ops = self.counters.setdefault(self.op, {})
        ops[name] = ops.get(name, 0.0) + value

    def minimum(self, name: str, value: float) -> None:
        ops = self.counters.setdefault(self.op, {})
        ops[name] = min(ops.get(name, value), value)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span_wrapper(self, name: str, fn, before=None, after=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # Each advance of the generator is one span, so the work it
                # does between yields is not charged to the consumer.
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, package) -> None:
        """Wrap every public function of each layer module of ``package``."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            skip = SKIP.get(layer, ())
            for attr, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or attr.startswith("_")
                        or fn.__module__ != mod.__name__
                        or attr.startswith(skip)):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.span_wrapper(name, fn, BEFORE.get(name),
                                            AFTER.get(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._rebind(m, key, fn, wrapped)
        measures = sys.modules[f"{package.__name__}.measures"]
        for cls_name in MEASURE_CLASSES:
            cls = getattr(measures, cls_name)
            for meth in ("mass_closed", "mass_left_open"):
                if meth in vars(cls):
                    self._rebind(cls, meth, vars(cls)[meth],
                                 self._mass_counter(vars(cls)[meth]))
            if "quadrature" in vars(cls):
                self._rebind(cls, "quadrature", vars(cls)["quadrature"],
                             self._quadrature_counter(vars(cls)["quadrature"]))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _rebind(self, owner, key, original, wrapped) -> None:
        self._undo.append((owner, key, original))
        setattr(owner, key, wrapped)

    def _mass_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Count outermost queries only: Uniform.mass_left_open and the
            # base class delegate to mass_closed.
            if self._mass_depth == 0:
                self.count("measures.mass_queries")
            self._mass_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._mass_depth -= 1
        return wrapper

    def _quadrature_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            u, w = fn(*args, **kwargs)
            self.count("measures.quadrature.nodes", len(u))
            return u, w
        return wrapper


# -- quantities read from arguments and results ---------------------------

def _after_resolvent(tr, args, kwargs, res):
    tr.count("kernels.resolvent.orders", res.n_star)


def _after_compose(tr, args, kwargs, res):
    # computed: one (N+1)^3 GEMM, 2 flops per multiply-add
    tr.count("kernels.volterra_compose.gflop", 2.0 * (res.grid.n + 1) ** 3 / 1e9)


def _after_picard(tr, args, kwargs, res):
    tr.count("oracles.picard.iterations", res.iterations)


def _after_lsmc(tr, args, kwargs, res):
    tr.count("oracles.lsmc.sweeps", res.iterations)


def _after_sample_paths(tr, args, kwargs, ens):
    # computed: bytes of the arrays the ensemble holds
    nbytes = sum(a.nbytes for a in (ens.dw, ens.w, ens.wq, ens.weights))
    tr.count("girsanov.sample_paths.mb", nbytes / 1e6)
    w = ens.weights
    tr.minimum("girsanov.ess_ratio", float(w.sum() / w.max()) / ens.n_paths)


def _after_write_csv(tr, args, kwargs, res):
    path = args[0]
    # computed: size of the file written, taken from the file system
    tr.count("cli.write_csv.mb", os.path.getsize(path) / 1e6)


AFTER = {
    "kernels.resolvent": _after_resolvent,
    "kernels.volterra_compose": _after_compose,
    "oracles.solve_delayed_picard": _after_picard,
    "oracles.solve_delayed_lsmc": _after_lsmc,
    "girsanov.sample_paths": _after_sample_paths,
    "cli.write_csv": _after_write_csv,
}


def _count_rows(tr, rows):
    n = 0
    try:
        for row in rows:
            n += 1
            yield row
    finally:
        tr.count("cli.write_csv.rows", n)


def _before_write_csv(tr, args, kwargs):
    path, header, rows = args
    return (path, header, _count_rows(tr, rows)), kwargs


BEFORE = {"cli.write_csv": _before_write_csv}


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out
