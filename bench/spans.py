"""Span tracing around the public names of blockmoment's modules.

The tracer replaces each public function of a layer module -- and every
copy of it that another module bound through ``from ... import`` -- with a
wrapper that records one span per call: name, start, end, parent span and
the benchmark call it belongs to.  ``BlockJacobiMatrix.prefix`` and
``numpy.linalg.inv`` are wrapped too.  Private helpers are left alone, so
their time lands in their public caller.  A generator function gets one
span per resumption, because that is when its work runs.

Spans live in flat typed arrays while the run goes on and are written out
once at the end.  A span's self time is its duration minus the durations
of its direct children; calls are single threaded and properly nested, so
the children never overlap.
"""

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("matkernel", "jacobi", "polys", "moments", "spectral",
          "nevanlinna", "measures", "serialize", "cli")
BENCH = "bench"
NUMPY = "numpy"


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS or head == NUMPY else BENCH


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.call = array("q")
        self.calls: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self.call_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.call.append(self.call_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn, name: str, on_call=None, on_result=None):
        nid = self.name_id(name)
        tracer = self
        self.calls.setdefault(name, 0)
        self.errors.setdefault(name, 0)

        if inspect.isgeneratorfunction(fn):
            def resumed(gen):
                while True:
                    idx = tracer.open(nid)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        tracer.errors[name] += 1
                        raise
                    finally:
                        tracer.close(idx)
                    yield value

            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if on_call is not None:
                    on_call(tracer, args, kwargs)
                return resumed(fn(*args, **kwargs))
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if on_call is not None:
                on_call(tracer, args, kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package, hooks=None):
        """Wrap every public function of each layer module of ``package``.

        ``hooks`` maps a span name to ``(on_call, on_result)``.
        """
        hooks = hooks or {}
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                originals[obj] = self.wrap(obj, name, *hooks.get(name,
                                                                 (None, None)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package.__name__ and \
                    not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._set(mod, attr, originals[obj])
        jac = sys.modules[f"{package.__name__}.jacobi"].BlockJacobiMatrix
        name = "jacobi.prefix"
        self._set(jac, "prefix", self.wrap(jac.prefix, name,
                                           *hooks.get(name, (None, None))))
        self._set(np.linalg, "inv", self.wrap(np.linalg.inv,
                                              "numpy.linalg.inv"))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------
    def arrays(self):
        return (np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.call, dtype=np.int64))

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        start, end, name, parent, _ = self.arrays()
        return self_times(start, end, name, parent, self.names)

    def save(self, path) -> None:
        start, end, name, parent, call = self.arrays()
        np.savez_compressed(path, start=start, end=end, name=name,
                            parent=parent, call=call,
                            names=np.array(self.names, dtype=str))


def self_times(start, end, name, parent, names) -> dict[str, float]:
    """Span duration minus the durations of its direct children, per name."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    own = np.bincount(np.asarray(name), weights=dur - child,
                      minlength=len(names))
    return {n: float(own[i]) for i, n in enumerate(names)}


def layer_self_times(per_name: dict[str, float]) -> dict[str, float]:
    out = {layer: 0.0 for layer in (*LAYERS, NUMPY, BENCH)}
    for name, secs in per_name.items():
        out[layer_of(name)] += secs
    return out
