"""Layer tracing from outside the library.

``Tracer`` replaces every public function of the matball layer modules with
a timing wrapper, in every ``matball`` namespace that binds it (a
``from .x import f`` binding would otherwise bypass a wrapper placed only on
``matball.x``), and in module-level tuples and dicts that hold such
functions (``verify.ALL_CRITERIA``, ``cli.COMMANDS``).  ``restore`` puts the
originals back.  No file under ``src/`` is edited.

Each wrapper records a span on a stack: its self time is its duration minus
the durations of the spans it directly encloses.  A few wrappers also count
work from the call's arguments or result (nodes, bytes, grid refinements).
Wrappers pass arguments and results through unchanged, so traced outputs are
bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("special", "spherical", "boundary", "hua", "identities",
          "experiments", "verify", "cli", "report")

# Thresholds of the branch dispatch documented in ``special.gauss_2f1``.
_INT_TOL = 1e-12
_RING_TOL = 1e-9
GAUSS_BRANCHES = ("series", "connection", "log", "terminating")


def _near_nonpositive_integer(z: complex) -> bool:
    if abs(z.imag) > _INT_TOL:
        return False
    k = round(z.real)
    return k <= 0 and abs(z.real - k) <= _INT_TOL


def gauss_2f1_branch(a, b, c, x) -> str:
    """The branch ``gauss_2f1(a, b, c, x)`` takes, read from its arguments:
    'terminating', 'series', 'log', 'connection', 'degenerate' (the ring
    that raises DegenerateConnection) or 'domain' (rejected input)."""
    a, b, c = complex(a), complex(b), complex(c)
    if not 0.0 <= x < 1.0 or _near_nonpositive_integer(c):
        return "domain"
    if _near_nonpositive_integer(a) or _near_nonpositive_integer(b):
        return "terminating"
    if x <= 0.5:
        return "series"
    d = c - a - b
    off = abs(d.real - round(d.real))
    if abs(d.imag) <= _INT_TOL and off <= _INT_TOL:
        return "log"
    if abs(d.imag) < _RING_TOL and off < _RING_TOL:
        return "degenerate"
    return "connection"


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


def _rows(angles) -> int:
    a = np.asarray(angles)
    return 1 if a.ndim < 2 else a.shape[0]


class Tracer:
    """Spans and counters for one traced run; ``with Tracer():`` installs
    the wrappers and restores the originals on exit."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(float)
        self._stack = []
        self._hua_depth = 0
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"matball.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "matball" and not modname.startswith("matball."):
                continue
            for name, obj in list(vars(mod).items()):
                new = _substitute(obj, wrappers)
                if new is not obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, new)

    def restore(self) -> None:
        while self._patches:
            mod, name, obj = self._patches.pop()
            setattr(mod, name, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans -------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        key = qualname.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)
        stats, stack = self.stats, self._stack
        is_gauss = qualname == "special.gauss_2f1"
        is_hua_apply = qualname == "hua.hua_apply"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = (f"{qualname}.{gauss_2f1_branch(*args, **kwargs)}"
                    if is_gauss else qualname)
            if before is not None:
                args = before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            if is_hua_apply:
                self._hua_depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                if is_hua_apply:
                    self._hua_depth -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st = stats[name]
                st.calls += 1
                st.self_s += dur - frame[0]
                st.total_s += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # `_before_<layer>_<name>` hooks count work from the arguments and return
    # the (possibly wrapped) positional arguments; `_after_<layer>_<name>`
    # hooks count work from the result of a call that returned.

    def _before_boundary_schur_character(self, args, kwargs):
        theta = np.asarray(args[1] if len(args) > 1 else kwargs["theta"])
        rows, n = _rows(theta), theta.shape[-1]
        self.counts["boundary.schur_character.nodes"] += rows
        # two (rows, n, n) complex power stacks, the (rows, n) exponentials
        # and three (rows,) complex results
        self.counts["boundary.schur_character.bytes_computed"] += \
            16 * rows * (2 * n * n + n + 3)
        return args

    def _before_boundary_poisson_kernel_torus(self, args, kwargs):
        angles = args[2] if len(args) > 2 else kwargs["angles"]
        self.counts["boundary.poisson_kernel_torus.nodes"] += _rows(angles)
        return args

    def _before_boundary_poisson_kernel(self, args, kwargs):
        if self._hua_depth:
            self.counts["hua.kernel_evals"] += 1
        return args

    def _before_boundary_weyl_integrate(self, args, kwargs):
        f, grid = args[0], args[1]
        counts = self.counts
        counts["boundary.weyl_integrate.grid_nodes"] += \
            grid.points_per_dim ** grid.n
        counts["boundary.weyl_integrate.grid_max_n"] = max(
            counts["boundary.weyl_integrate.grid_max_n"], grid.points_per_dim)

        def counted(angles):
            counts["boundary.weyl_integrate.nodes"] += _rows(angles)
            return f(angles)

        return (counted,) + tuple(args[1:])

    def _after_experiments_forelli_rudin_growth(self, args, result):
        start = args[2].points_per_dim
        self.counts["experiments.forelli_rudin_growth.refinements"] += sum(
            math.log2(g / start) for g in result.column("grid_points"))

    def _after_cli_write_csv(self, args, result):
        if args[0] != "-":
            self.counts["cli.csv_bytes"] += os.path.getsize(args[0])


def _substitute(obj, wrappers: dict):
    """``obj`` with every original function replaced by its wrapper; ``obj``
    itself when nothing in it is wrapped."""
    if inspect.isfunction(obj):
        return wrappers.get(obj, obj)
    if isinstance(obj, tuple) and any(inspect.isfunction(v) for v in obj):
        new = tuple(wrappers.get(v, v) if inspect.isfunction(v) else v
                    for v in obj)
        return obj if all(a is b for a, b in zip(new, obj)) else new
    if isinstance(obj, dict) and any(inspect.isfunction(v)
                                     for v in obj.values()):
        new = {k: wrappers.get(v, v) if inspect.isfunction(v) else v
               for k, v in obj.items()}
        return obj if all(new[k] is v for k, v in obj.items()) else new
    return obj
