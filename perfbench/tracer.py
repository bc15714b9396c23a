"""Outside-in tracer: spans around seesawqec's public functions.

The library has no tracing of its own, so the tracer replaces each traced
function, in every module namespace of the package that binds it, with a
wrapper that records a span, and puts the originals back on ``remove``.
Classes are traced through their ``__init__``.  A span's self time is its
duration minus the durations of the traced spans it directly contains, so
the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


class Layer:
    """Aggregate of every span of one traced function."""

    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: Dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _observe_half(layer: Layer, args, kwargs, result) -> None:
    layer.add("iters", result.iterations)
    layer.add("unconverged", 0 if result.converged else 1)


def _observe_isometric(layer: Layer, args, kwargs, result) -> None:
    layer.add("iters", result[2])


def _observe_seesaw(layer: Layer, args, kwargs, result) -> None:
    opts = args[2] if len(args) > 2 else kwargs["opts"]
    winner = result.best_restart_seed - opts.seed
    for idx, trace in enumerate(result.restart_traces):
        rounds = (len(trace) - 1) // 2
        layer.add("restarts", 1)
        layer.add("rounds", rounds)
        if idx != winner:
            layer.add("rounds_wasted", rounds)
        # A restart stopped by the cap ends on a round that still gained
        # at least outer_tol.
        if rounds == opts.max_outer_rounds and trace[-1] - trace[-3] >= opts.outer_tol:
            layer.add("restarts_capped", 1)


# (module, name, observer).  A class is traced through its __init__.
TRACED: List[Tuple[str, str, Optional[Callable]]] = [
    ("linalg", "herm_eig", None),
    ("linalg", "inv_sqrt_psd", None),
    ("linalg", "kron_all", None),
    ("channels", "tensor_power", None),
    ("channels", "Channel", None),
    ("codes", "Isometry", None),
    ("codes", "reversal_recovery", None),
    ("optimizer", "random_cptp", None),
    ("optimizer", "fidelity_operator_recovery", None),
    ("optimizer", "fidelity_operator_encoding", None),
    ("optimizer", "optimize_half", _observe_half),
    ("optimizer", "optimize_encoding_isometric", _observe_isometric),
    ("optimizer", "optimize_recovery_multistart", None),
    ("optimizer", "seesaw", _observe_seesaw),
    ("cli", "run_sweep", None),
    ("cli", "write_csv", None),
]

PACKAGE = "seesawqec"


class Tracer:
    """Install with ``install()``; ``remove()`` restores every binding."""

    def __init__(self):
        self.layers: Dict[str, Layer] = {f"{m}.{a}": Layer() for m, a, _ in TRACED}
        self._open: List[float] = []  # child time accumulated per open span
        self._patched: List[Tuple[object, str, object]] = []
        self._removed: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        layer = self.layers[name]
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                layer.calls += 1
                layer.total_s += dt
                layer.self_s += dt - child
            if observe is not None:
                observe(layer, args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for modname, attr, observe in TRACED:
            name = f"{modname}.{attr}"
            obj = getattr(sys.modules[f"{PACKAGE}.{modname}"], attr, None)
            if obj is None:
                continue  # gone from the library: the layer reports no calls
            if isinstance(obj, type):
                self._patch(obj, "__init__", self._wrap(name, obj.__init__, observe))
                continue
            wrapper = self._wrap(name, obj, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._removed, self._patched = self._patched, []

    def restored(self) -> bool:
        """True when every binding the last ``remove`` undid is the original again."""
        return all(getattr(owner, key) is original
                   for owner, key, original in self._removed)
