"""Spans recorded around the benchmark's own calls into mastat's layers.

The benchmark never reaches into the library: it calls the public functions
of dist, cgf, mas, dominance, pref and cli through a `Layers` object. An
untraced `Layers` hands out the modules themselves, so untraced runs pay
nothing. A traced one hands out proxies that record one span per call,
parented to the op that made it, and keeps every span in memory until the
run writes them out at the end.
"""

import contextlib
import importlib
import inspect
import json
import math
import statistics
import time

from metrics import LAYERS


class Tracer:
    """In-memory span store. A span is (id, parent id, name, op label,
    start, end, raised), times from time.perf_counter."""

    def __init__(self):
        self.spans = []
        self._op = None  # (span id, label) of the op being run

    @contextlib.contextmanager
    def op(self, name, label):
        """Root span of one op; layer calls made inside become its children."""
        sid = len(self.spans)
        self.spans.append(None)  # filled in when the op ends
        self._op = (sid, label)
        start = time.perf_counter()
        raised = True
        try:
            yield
            raised = False
        finally:
            end = time.perf_counter()
            self.spans[sid] = (sid, None, name, label, start, end, raised)
            self._op = None

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a child span of the op being run."""
        parent, label = self._op
        start = time.perf_counter()
        raised = True
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter()
            self.spans.append(
                (len(self.spans), parent, name, label, start, end, raised)
            )

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, label, start, end, raised in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "op": label,
                            "start": start,
                            "end": end,
                            "raised": raised,
                        }
                    )
                    + "\n"
                )


class _TracedModule:
    """Proxy over one mastat module: public functions come back wrapped."""

    def __init__(self, module, layer, tracer):
        self._module = module
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        public = not attr.startswith("_") and inspect.isfunction(value)
        if not public or value.__module__ != self._module.__name__:
            return value  # classes, constants and re-exported names pass through
        name = f"{self._layer}.{attr}"
        tracer = self._tracer

        def traced(*args, **kwargs):
            return tracer.call(name, value, *args, **kwargs)

        setattr(self, attr, traced)  # wrap once per attribute
        return traced


class Layers:
    """The mastat modules as the benchmark's ops see them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        for layer in LAYERS:
            module = importlib.import_module(f"mastat.{layer}")
            if tracer is not None:
                module = _TracedModule(module, layer, tracer)
            setattr(self, layer, module)

    def call(self, name, fn, *args, **kwargs):
        """Call fn, recording it as a span `name` when traced. For calls
        that are not module functions (methods, processes)."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)


def durations(spans, name=None, label=None, prefix=None):
    """Durations in seconds of the layer spans matching name/prefix/op label."""
    out = []
    for _sid, parent, sname, slabel, start, end, _raised in spans:
        if parent is None:
            continue
        if name is not None and sname != name:
            continue
        if prefix is not None and not sname.startswith(prefix):
            continue
        if label is not None and slabel != label:
            continue
        out.append(end - start)
    return out


def median_or_zero(values):
    """Median, or 0 for a layer the workload did not call."""
    return statistics.median(values) if values else 0.0


def op_self_times(spans):
    """Per op span: its duration minus the time its child spans cover."""
    child_time = {}
    for _sid, parent, _name, _label, start, end, _raised in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return [
        (end - start) - child_time.get(sid, 0.0)
        for sid, parent, _name, _label, start, end, _raised in spans
        if parent is None
    ]


def percentile(values, q):
    """Nearest-rank percentile and the number of samples strictly above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    value = ordered[rank - 1]
    return value, sum(1 for v in ordered if v > value)
