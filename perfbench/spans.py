"""In-memory span tracer that wraps the public functions of the icasc layers.

The wrappers live here, in the benchmark, so the program itself carries no
tracing code.  ``instrument`` replaces every public function and public
method of the traced modules with a wrapper that records one span per call
(name, start, end, parent span, step id) and puts the originals back when
the context exits.  The tracer assumes one thread: the benchmark unsets
``SHARPEN_FOCUS_THREADS`` so the overlap report never starts a pool.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from types import FunctionType

import numpy as np

TRACED_MODULES = ("autodiff", "nn", "attention", "losses", "data", "metrics",
                  "training", "cli")

# A batch that ``training.train`` pulls from ``data.batch_iter`` opens a
# ``training.step`` span that lasts until the loop asks for the next batch,
# so one step is one loop body of the training loop.
STEP_OWNER = "training.train"
STEP_SPAN = "training.step"

CONV_KINDS = ("conv2d", "conv2d_dx", "conv2d_dw")


class Tracer:
    """Spans as ``[name, start, end, parent, step]`` lists, in open order.

    Parents are opened before their children, so a span's parent always has
    a smaller index.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.step = 0
        self.census: dict | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.step])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        """End ``index`` and any span still open above it on the stack.

        A span is left open above its parent only when an exception unwinds
        past a suspended generator; ending it with its parent keeps every
        child inside its parent.
        """
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == index:
                return

    def top_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "step": st}
                for n, s, e, p, st in self.spans]


# --------------------------------------------------------------------------
# wrappers
# --------------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn):
    if name == "cli.main":
        @functools.wraps(fn)
        def command(*args, **kwargs):
            tracer.step += 1
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
        return command

    if name == "autodiff.backward":
        @functools.wraps(fn)
        def backward(root, wrt, create_graph=False):
            index = tracer.open("autodiff.backward_graph" if create_graph
                                else "autodiff.backward_final")
            try:
                result = fn(root, wrt, create_graph=create_graph)
            finally:
                tracer.close(index)
            if not create_graph:
                # the last final backward's tape is the one reported
                tracer.census = tape_census(root.tape.nodes)
            return result
        return backward

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            items = fn(*args, **kwargs)
            is_step = tracer.top_name() == STEP_OWNER
            while True:
                index = tracer.open(f"{name}.next")
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                if not is_step:
                    yield item
                    continue
                tracer.step += 1
                step = tracer.open(STEP_SPAN)
                try:
                    yield item
                finally:
                    tracer.close(step)
        return generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return traced


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


@contextmanager
def instrument(tracer: Tracer, package: str = "icasc"):
    """Wrap the public functions and methods of the traced modules.

    Functions imported by name into another icasc module are replaced there
    too, so every call site reaches the wrapper.
    """
    traced = {f"{package}.{m}" for m in TRACED_MODULES}
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    wrappers: dict[int, FunctionType] = {}
    undo: list[tuple[object, str, object]] = []

    def wrapper_for(fn, name):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = _wrap(tracer, name, fn)
        return wrappers[id(fn)]

    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, FunctionType) and value.__module__ in traced:
                name = f"{_short(value.__module__)}.{value.__name__}"
                undo.append((module, attr, value))
                setattr(module, attr, wrapper_for(value, name))
            elif (isinstance(value, type) and value.__module__ == module.__name__
                  and module.__name__ in traced):
                for meth, raw in list(vars(value).items()):
                    if meth.startswith("_"):
                        continue
                    name = f"{_short(module.__name__)}.{value.__name__}.{meth}"
                    if isinstance(raw, staticmethod):
                        new = staticmethod(wrapper_for(raw.__func__, name))
                    elif isinstance(raw, FunctionType):
                        new = wrapper_for(raw, name)
                    else:
                        continue
                    undo.append((value, meth, raw))
                    setattr(value, meth, new)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# tape census
# --------------------------------------------------------------------------


def _conv_cost(node) -> tuple[float, float]:
    """FLOPs and computed bytes moved of one conv-family node.

    conv2d, its input adjoint and its weight adjoint share one geometry and
    one multiply-add count; each reads or writes the input-, weight- and
    output-shaped arrays once.
    """
    meta = node.meta
    n, cin, h, w = meta["x_shape"]
    cout, _, kh, kw = meta["w_shape"]
    pad, stride = meta["padding"], meta["stride"]
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    flops = 2.0 * n * cout * oh * ow * cin * kh * kw
    elems = n * cin * h * w + cout * cin * kh * kw + n * cout * oh * ow
    return flops, 8.0 * elems


def tape_census(nodes) -> dict:
    """Node count, bytes held, nodes per op kind and conv cost of a tape.

    Bytes count every distinct array a node holds (its value, its operand
    values and its meta arrays) once.
    """
    seen: set[int] = set()
    nbytes = 0
    flops = conv_bytes = 0.0
    for node in nodes:
        arrays = [node.value] + [data for _, data in node.inputs]
        arrays += [v for v in node.meta.values() if isinstance(v, np.ndarray)]
        for arr in arrays:
            if id(arr) not in seen:
                seen.add(id(arr))
                nbytes += arr.nbytes
        if node.kind in CONV_KINDS:
            f, b = _conv_cost(node)
            flops += f
            conv_bytes += b
    return {"nodes": len(nodes), "bytes": nbytes,
            "kinds": dict(Counter(node.kind for node in nodes)),
            "conv_flops": flops, "conv_bytes": conv_bytes}


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------


class SpanStats:
    """Durations, self times and per-iteration sums of a list of spans.

    Spans whose root is named ``iteration_root`` are the measured
    iterations; spans under ``setup_root`` belong to set-up.
    """

    def __init__(self, spans: list[list], iteration_root: str,
                 setup_root: str) -> None:
        self.spans = spans
        n = len(spans)
        self.duration = [s[2] - s[1] for s in spans]
        child_time = [0.0] * n
        self.root = list(range(n))
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += self.duration[i]
                self.root[i] = self.root[parent]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]
        self.iterations = [i for i, s in enumerate(spans)
                           if s[3] < 0 and s[0] == iteration_root]
        self.setups = [i for i, s in enumerate(spans)
                       if s[3] < 0 and s[0] == setup_root]
        self._iteration_set = set(self.iterations)

    def _in_iterations(self, name: str, values: list[float]) -> list[float]:
        return [v for i, (s, v) in enumerate(zip(self.spans, values))
                if s[0] == name and self.root[i] in self._iteration_set]

    def durations(self, name: str) -> list[float]:
        """Durations of the spans ``name`` inside measured iterations."""
        return self._in_iterations(name, self.duration)

    def percentile_ms(self, name: str, q: int, self_time: bool = False) -> float:
        picked = self._in_iterations(
            name, self.self_time if self_time else self.duration)
        if not picked:
            return 0.0
        return 1e3 * float(np.percentile(picked, q))

    def _per_root(self, roots: list[int], match, values) -> list[float]:
        sums = {r: 0.0 for r in roots}
        for i, s in enumerate(self.spans):
            r = self.root[i]
            if r in sums and i != r and match(s[0]):
                sums[r] += values[i]
        return [sums[r] for r in roots]

    def per_iteration(self, name: str, count: bool = False) -> float:
        """Median over iterations of the summed seconds (or the count) of
        the spans named ``name``."""
        values = [1.0] * len(self.spans) if count else self.duration
        sums = self._per_root(self.iterations, lambda n: n == name, values)
        return statistics.median(sums) if sums else 0.0

    def per_setup(self, name: str) -> float:
        sums = self._per_root(self.setups, lambda n: n == name, self.duration)
        return statistics.median(sums) if sums else 0.0

    def module_self(self, module: str) -> float:
        """Median over iterations of the summed self time of every span of
        one module."""
        prefix = module + "."
        sums = self._per_root(self.iterations, lambda n: n.startswith(prefix),
                              self.self_time)
        return statistics.median(sums) if sums else 0.0

    def share_self(self, name: str) -> float:
        """Summed self time over summed duration of the spans ``name``."""
        total = sum(self.durations(name))
        own = sum(self._in_iterations(name, self.self_time))
        return own / total if total > 0 else 0.0
