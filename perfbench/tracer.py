"""Span tracer that wraps the public functions of each ebloch layer.

The package binds names with ``from .x import y``, so a function has one
binding per module that imported it.  :meth:`Tracer.install` replaces every
binding (module attributes and module-level dicts such as the CLI's runner
table) with a timing wrapper, and :meth:`Tracer.uninstall` puts the
originals back.  Spans are kept in flat arrays in memory and written out once
the run ends.

A layer is one module.  The self time of a span is its duration minus the
time covered by spans of *other* layers that it called, directly or through
calls inside its own layer, so ``step_rk4``'s self time excludes
``master_rhs`` while ``canonical_experiment``'s includes its own ratio
profiles and scalar ODE loop.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "systems", "linalg", "dissipators", "propagate", "stationary",
          "canonical", "bench")

# Private or foreign callables that still mark a layer boundary worth timing.
EXTRA_SPANS = {("propagate", "_diagnose"): "propagate.diagnose"}


class _Overlay:
    """Stand-in for a module that overrides some attributes and forwards the rest."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records (name, parent, call id, start, end) for every wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.call_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.superop_dim = 0
        self._stack: list[int] = []
        self._call = -1
        self._restore: list[tuple] = []

    def begin_call(self) -> None:
        """Start a new request: spans recorded from now on share its id."""
        self._call += 1

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self._intern(name)
        stack, name_id, parent, call_id = self._stack, self.name_id, self.parent, self.call_id
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            call_id.append(self._call)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _observe_superop(self, S) -> None:
        self.superop_dim = max(self.superop_dim, int(S.shape[0]))

    def install(self) -> None:
        """Wrap every public function and class constructor of each layer."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"ebloch.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = EXTRA_SPANS.get((layer, attr))
                if name is None and attr.startswith("_"):
                    continue
                name = name or f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    observe = self._observe_superop if attr == "build_superoperator" else None
                    wrappers[id(obj)] = self.wrap(name, obj, observe)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    init = obj.__dict__.get("__init__")
                    if init is not None:
                        self._set(obj, "__init__", self.wrap(name, init), init)
        for modname, mod in list(sys.modules.items()):
            if modname != "ebloch" and not modname.startswith("ebloch."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)], obj)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]
                            self._restore.append((obj.__setitem__, key, val))
        # propagate calls scipy.linalg.expm through the scipy module attribute
        prop = sys.modules["ebloch.propagate"]
        real_scipy = prop.scipy
        expm = self.wrap("propagate.expm", real_scipy.linalg.expm)
        self._set(prop, "scipy",
                  _Overlay(real_scipy, linalg=_Overlay(real_scipy.linalg, expm=expm)),
                  real_scipy)

    def _set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._restore.append((lambda k, v, o=owner: setattr(o, k, v), attr, old))

    def uninstall(self) -> None:
        while self._restore:
            setter, key, old = self._restore.pop()
            setter(key, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (a live view would pin the buffers)."""
        return {name: np.array(getattr(self, name)) for name in
                ("name_id", "parent", "call_id", "start", "end")}

    def save(self, path) -> None:
        """Write every span (plus the name table) as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer, lo: int = 0, hi: int | None = None) -> dict:
    """Per-name and per-layer aggregates over spans ``lo:hi``.

    ``lo:hi`` must cover whole calls (as one job set does).  Returns
    ``calls``, ``s`` and ``self_s`` keyed by span name; ``layer_calls`` and
    ``layer_s`` keyed by layer, counting entries into a layer from another
    layer or from the harness; and ``intervals``, the record intervals
    propagated on the expm route.
    """
    hi = len(tracer) if hi is None else hi
    a = {k: v[lo:hi] for k, v in tracer.arrays().items()}
    nid = a["name_id"]
    parent = np.where(a["parent"] >= 0, a["parent"] - lo, -1)
    dur = a["end"] - a["start"]
    layer = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names],
                     dtype=np.int32)[nid]
    child = parent >= 0
    same_layer = np.zeros(len(dur), dtype=bool)
    same_layer[child] = layer[parent[child]] == layer[child]

    # time in other layers' spans reached through same-layer calls only;
    # children follow their parents in the arrays, so one reverse pass suffices
    par, dur_l, same_l = parent.tolist(), dur.tolist(), same_layer.tolist()
    cross = [0.0] * len(par)
    for c in range(len(par) - 1, -1, -1):
        if par[c] >= 0:
            cross[par[c]] += cross[c] if same_l[c] else dur_l[c]
    self_time = dur - np.array(cross)

    n_names = len(tracer.names)
    calls = np.bincount(nid, minlength=n_names)
    total = np.bincount(nid, weights=dur, minlength=n_names)
    self_total = np.bincount(nid, weights=self_time, minlength=n_names)
    entry = ~same_layer
    layer_calls = np.bincount(layer[entry], minlength=len(LAYERS))
    layer_s = np.bincount(layer[entry], weights=dur[entry], minlength=len(LAYERS))

    # a propagate call that assembled a superoperator took the expm route;
    # it records the initial state plus one state per interval
    ids = {name: i for i, name in enumerate(tracer.names)}
    prop, build, diag = (ids.get(name, -1) for name in (
        "propagate.propagate", "propagate.build_superoperator", "propagate.diagnose"))
    exact_runs = np.unique(parent[child & (nid == build)])
    exact_runs = exact_runs[nid[exact_runs] == prop]
    records = np.bincount(parent[child & (nid == diag)], minlength=len(dur))
    return {
        "calls": {name: int(calls[i]) for i, name in enumerate(tracer.names)},
        "s": {name: float(total[i]) for i, name in enumerate(tracer.names)},
        "self_s": {name: float(self_total[i]) for i, name in enumerate(tracer.names)},
        "layer_calls": {name: int(layer_calls[i]) for i, name in enumerate(LAYERS)},
        "layer_s": {name: float(layer_s[i]) for i, name in enumerate(LAYERS)},
        "intervals": int((records[exact_runs] - 1).sum()),
    }
