"""Spans around bandlimit's public functions, installed from outside.

The package binds names at import time (``from .sinckernel import sinc``),
so replacing ``bandlimit.sinckernel.sinc`` alone would leave most kernel
calls uncounted.  :meth:`Tracer.install` therefore puts each wrapper under
every module name bound to the original function, and :meth:`uninstall`
puts the originals back.

Spans live in flat arrays while the pass runs and are written out as JSON
lines afterwards.  Each wrapper reads the clock four times: on entry, just
before and just after the wrapped call, and on exit.  The inner pair is the
span; the time between the outer and inner readings is the tracer's own
bookkeeping (appends, counters, hooks), charged to a ``trace`` bucket and not
to the layer that made the call.  A layer's self time is its spans'
durations minus the entry-to-exit time of their child spans; callbacks the
benchmark hands to the library (oracle functions and group actions) get
spans of their own, layer ``callback``, so their time is not charged to the
layer that called them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List

import numpy as np

LAYERS = ("sinckernel", "sampling", "boas", "grouporbit",
          "inequalities", "dht", "seqio", "cli")
CALLBACK = "callback"

#: callback kinds the benchmark supplies, and the counter each one feeds
CALLBACK_COUNTERS = {
    "f": "callback.f_evals",
    "df": "callback.f_evals",
    "orbit": "grouporbit.orbit_calls",
    "generator": "grouporbit.generator_calls",
    "norm": None,
}

#: layers a request's error budget is charged to (Request.layer in
#: workloads.py); the other four are never a request's dispatch target
ERR_LAYERS = ("sampling", "boas", "grouporbit", "dht")

COUNTERS = ("sinckernel.points", "sampling.terms", "boas.terms",
            "grouporbit.orbit_calls", "grouporbit.generator_calls",
            "dht.out_entries", "seqio.bytes_read", "seqio.bytes_written",
            "callback.f_evals")


def _file_bytes(path, sidecar: bool) -> int:
    size = os.path.getsize(path)
    if sidecar:
        size += os.path.getsize(os.path.splitext(os.fspath(path))[0] + ".json")
    return size


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


# Work counters, keyed by the function they are read from.  Each hook sees
# (tracer, entering, args, kwargs, result); ``entering`` is true when the
# caller is outside the function's layer.

def _points(tr, entering, args, kwargs, out):
    if entering:
        sizes = [a.size for a in args if isinstance(a, np.ndarray)]
        tr.counts["sinckernel.points"] += sum(sizes) if sizes else 1


def _halfwidth(tr, entering, args, kwargs, out):
    tr.last_halfwidth = int(out)


def _boas_terms(tr, entering, args, kwargs, out):
    k = _arg(args, kwargs, 4, "k_terms")
    tr.counts["boas.terms"] += int(k) if k is not None else tr.last_halfwidth


def _wks_terms(tr, entering, args, kwargs, out):
    s, x = args[0], _arg(args, kwargs, 2, "x")
    r0 = int(round(float(x) / s.h))
    tr.counts["sampling.terms"] += 2 * min(r0 - s.k_min, s.k_max - r0) + 1


def _vt_terms(tr, entering, args, kwargs, out):
    s = args[0]
    tr.counts["sampling.terms"] += 2 * min(-s.k_min, s.k_max) + 1


def _out_entries(tr, entering, args, kwargs, out):
    if entering and hasattr(out, "values") and hasattr(out, "n0"):
        tr.counts["dht.out_entries"] += len(out.values)


def _reader(sidecar):
    def hook(tr, entering, args, kwargs, out):
        tr.counts["seqio.bytes_read"] += _file_bytes(args[0], sidecar)
    return hook


def _writer(sidecar):
    def hook(tr, entering, args, kwargs, out):
        tr.counts["seqio.bytes_written"] += _file_bytes(args[0], sidecar)
    return hook


HOOKS: Dict[str, Callable] = {
    "boas.truncation_halfwidth": _halfwidth,
    "boas.boas_derivative": _boas_terms,
    "boas.boas_derivative_fast": _boas_terms,
    "sampling.wks_eval": _wks_terms,
    "sampling.valiron_tschakaloff_eval": _vt_terms,
    "seqio.read_samples": _reader(True),
    "seqio.read_sequence": _reader(True),
    "seqio.read_footer": _reader(False),
    "seqio.write_samples": _writer(True),
    "seqio.write_sequence": _writer(True),
    "seqio.write_table": _writer(False),
}

#: counters read on every call entering these layers
LAYER_HOOKS: Dict[str, Callable] = {"sinckernel": _points, "dht": _out_entries}


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.span_names: List[str] = []
        self.span_layer: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.leave = array("d")
        self._stack = [-1]
        self._layers = [None]
        self.request_id = -1
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.counts: Counter = Counter({name: 0 for name in COUNTERS})
        self.last_halfwidth = 0
        self._patches: list = []

    # -- wrappers ----------------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.span_layer.append(layer)
        return self._ids[name]

    def _wrap(self, fn, name: str, layer: str, hook=None, counter=None):
        sid = self._intern(name, layer)
        stack, layers = self._stack, self._layers
        name_id, parent, request = self.name_id, self.parent, self.request
        enter, start, end, leave = self.enter, self.start, self.end, self.leave
        calls, failures, counts = self.calls, self.failures, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            i = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            request.append(tracer.request_id)
            enter.append(t_in)
            start.append(0.0)
            end.append(0.0)
            leave.append(0.0)
            entering = layers[-1] != layer
            if entering:
                calls[layer] += 1
            if counter is not None:
                counts[counter] += 1
            stack.append(i)
            layers.append(layer)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                start[i] = t0
                stack.pop()
                layers.pop()
                if entering:
                    failures[layer] += 1
                leave[i] = clock()
                raise
            end[i] = clock()
            start[i] = t0
            stack.pop()
            layers.pop()
            if hook is not None:
                hook(tracer, entering, args, kwargs, out)
            leave[i] = clock()
            return out

        return traced

    def callback(self, fn, kind: str):
        """Wrap a function the benchmark passes into the library."""
        return self._wrap(fn, f"{CALLBACK}.{kind}", CALLBACK,
                          counter=CALLBACK_COUNTERS[kind])

    def install(self) -> None:
        """Wrap every public function of the layer modules, under every name
        any bandlimit module binds it to."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"bandlimit.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    qual = f"{layer}.{name}"
                    hook = HOOKS.get(qual, LAYER_HOOKS.get(layer))
                    wrapped[id(obj)] = self._wrap(obj, qual, layer, hook)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bandlimit" or modname.startswith("bandlimit.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def span_arrays(self):
        """Per span: layer index, parent, request, and as arrays the clock
        readings enter, start, end, leave; self time (end - start minus the
        children's leave - enter) and tracer time (leave - enter minus
        end - start)."""
        layer_names = list(LAYERS) + [CALLBACK]
        layer_of_name = np.array([layer_names.index(l) for l in self.span_layer] or [0],
                                 dtype=np.intp)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        enter, start, end, leave = (np.frombuffer(a, dtype=float)
                                    for a in (self.enter, self.start, self.end, self.leave))
        dur = end - start
        outer = leave - enter
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], outer[nested])
        return {"layer": layer_of_name[names], "parent": parent,
                "request": np.frombuffer(self.request, dtype=np.int32),
                "enter": enter, "start": start, "end": end, "leave": leave,
                "self": dur - child, "trace": outer - dur}

    def write_jsonl(self, path, origin: float) -> int:
        """Write one JSON object per span; returns the number written."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (sid, p, r, s, e) in enumerate(zip(self.name_id, self.parent, self.request,
                                                      self.start, self.end)):
                fh.write(json.dumps({"id": i, "name": self.span_names[sid],
                                     "start": s - origin, "end": e - origin,
                                     "parent": p, "request_id": r}) + "\n")
        return len(self.start)


def frame_cost() -> float:
    """Seconds per traced call that no clock reading in the wrapper sees:
    entering the wrapper's frame and returning from it.  That time is still
    charged to the calling layer's self time.  Measured as a traced no-op
    minus an untraced one minus the tracer time the wrapper records, median
    of five trials."""
    def noop(x):
        return x
    calls, trials = 20000, []
    for _ in range(5):
        tracer = Tracer()
        traced = tracer.callback(noop, "norm")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1.0)
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced(1.0)
        wrapped = time.perf_counter() - t0
        trials.append((wrapped - bare - float(np.sum(tracer.span_arrays()["trace"]))) / calls)
    return float(np.median(trials))


def per_layer_units() -> Dict[str, str]:
    """Unit of every metric in a traced run's result line.

    Self times in seconds are printed and recorded but reach the result line
    as shares of the traced wall time: a layer a workload never enters reads
    exactly 0 s on every run, which is not a measured time.
    """
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_share": "frac",
                      f"{layer}.failures": "count"})
    for layer in ERR_LAYERS:
        units[f"{layer}.err_over_tol_p50"] = "ratio"
    for name in COUNTERS:
        units[name] = "bytes" if name.startswith("seqio.") else "count"
    units["callback.f_share"] = "frac"
    units["trace.overhead_frac"] = "frac"
    return units
