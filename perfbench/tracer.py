"""In-memory span tracer that wraps bcslab's module-level bindings.

`Tracer.install()` replaces every public function of the traced modules,
in every bcslab module that binds it, by a wrapper that records a span
(name, start, end, parent).  `OperatorBundle.__init__` is wrapped on the
class, and `np.linalg.eigvalsh` as seen from `bcslab.analysis` is wrapped
through a proxy of that module's `np` binding, so the dense solver shows as
its own layer without touching numpy for anyone else.  `uninstall()` puts
every original back, so untraced operations in the same process run the
program exactly as shipped.  Spans stay in memory; the caller writes them
out at exit.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

TRACED_MODULES = ("cli", "analysis", "fock", "hamiltonian", "states", "gapsolve", "model")


class _ModuleProxy(types.ModuleType):
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        super().__init__(target.__name__)
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.solves = []  # (iterations, trivial) per gap solve, in call order
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _record_solve(self, sol):
        self.solves.append((int(sol.iterations), bool(sol.trivial)))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        import bcslab
        from bcslab import analysis, hamiltonian

        modules = [m for n, m in sorted(sys.modules.items()) if n == "bcslab" or n.startswith("bcslab.")]
        wrapped = {}  # id(original) -> wrapper
        for short in TRACED_MODULES:
            mod = getattr(bcslab, short)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                hook = self._record_solve if short == "gapsolve" and attr.startswith("solve_") else None
                wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj, hook))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._undo.append((mod, attr, obj))

        init = hamiltonian.OperatorBundle.__init__
        hamiltonian.OperatorBundle.__init__ = self._wrap("hamiltonian.OperatorBundle", init)
        self._undo.append((hamiltonian.OperatorBundle, "__init__", init))

        np_mod = analysis.np
        linalg = _ModuleProxy(
            np_mod.linalg, eigvalsh=self._wrap("analysis.eigvalsh", np_mod.linalg.eigvalsh)
        )
        analysis.np = _ModuleProxy(np_mod, linalg=linalg)
        self._undo.append((analysis, "np", np_mod))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_times(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Per-name inclusive seconds, self seconds and call counts for spans[lo:hi].

    Self time is a span's duration minus the durations of its direct
    children; spans nest because the program is single-threaded.
    """
    hi = len(spans) if hi is None else hi
    out = {}
    child_time = {}
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        if parent >= lo:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for i in range(lo, hi):
        name, start, end, _ = spans[i]
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += end - start
        row["self_s"] += end - start - child_time.get(i, 0.0)
        row["calls"] += 1
    return out
