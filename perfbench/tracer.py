"""In-memory span tracer wrapped around the public functions of cohsynth.

Each module of the package is a layer. ``Tracer.install`` wraps every public
function of a layer module and every public method of the classes it
defines, then replaces each binding of the original in every loaded
cohsynth module, so ``from .states import pure_product_state`` copies in
other modules and the package namespace are traced too. A span is
``[name, start, end, parent, attrs]``; spans live in memory and are written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "states", "measures", "protocol", "dephasing",
          "closedform", "sweep", "validation", "cli")


@functools.lru_cache(maxsize=None)
def _surviving_fraction(n: int, kind: str, pairs: tuple) -> float:
    """Share of the 2^n basis strings that survive the plan (enumerated)."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    if kind == "global":
        return float(bits.any(axis=1).mean())
    alive = np.ones(2**n, dtype=bool)
    for j, k in pairs:
        alive &= (bits[:, j - 1] == 1) | (bits[:, k - 1] == 1)
    return float(alive.mean())


def _spectrum_attrs(args, kwargs, result, exc):
    return {"dim": int(np.shape(args[0])[0])}


def _apply_protocol_attrs(args, kwargs, result, exc):
    from cohsynth.errors import ProtocolImpossibleError

    state, plan = args[0], args[1]
    return {"kept": _surviving_fraction(state.n, plan.kind, plan.pairs),
            "refused": isinstance(exc, ProtocolImpossibleError)}


def _dephase_local_attrs(args, kwargs, result, exc):
    state, eps = args[0], args[1]
    # computed: the int64 xor index table plus the float64 factor table
    dephases = any(e != 1.0 for e in eps)
    return {"table_bytes": 16 * 4**state.n if dephases else 0}


def _run_sweep_attrs(args, kwargs, result, exc):
    config = args[0]
    return {"cells": len(config.n_values) * len(config.p_values), "config": config}


def _write_records_attrs(args, kwargs, result, exc):
    path = args[0]
    return {"bytes": os.path.getsize(path) if exc is None and os.path.exists(path) else 0}


ATTR_HOOKS = {
    "linalg.spectrum": _spectrum_attrs,
    "protocol.apply_protocol": _apply_protocol_attrs,
    "dephasing.dephase_local": _dephase_local_attrs,
    "sweep.run_sweep": _run_sweep_attrs,
    "sweep.write_records": _write_records_attrs,
}


class Tracer:
    """Records spans while ``active``; wrapped calls pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.pool_tasks = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        hook = ATTR_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = exc = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                if hook is not None:
                    span[4] = hook(args, kwargs, result, exc)

        return traced

    @contextmanager
    def span(self, name: str):
        """Root span for one op; layer spans inside it name it as their ancestor."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def _counting_executor(self):
        tracer = self

        class CountingExecutor(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                tracer.pool_tasks += 1
                return super().submit(*args, **kwargs)

        return CountingExecutor

    def install(self) -> None:
        """Wrap every layer's public callables wherever cohsynth binds them."""
        import cohsynth.cli  # noqa: F401  (loads every layer module)

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"cohsynth.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    self._wrap_methods(layer, value)
                elif callable(value):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name != "cohsynth" and not name.startswith("cohsynth."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
                elif value is ProcessPoolExecutor:
                    self._patch(module, attr, self._counting_executor())

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, value.__func__)))
            elif isinstance(value, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, value.__func__)))
            elif callable(value):
                self._patch(cls, attr, self._wrap(name, value))

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def summarize(spans: list[list]) -> dict:
    """Fold spans into additive totals (ms, calls, computed counts) and maxima."""
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    out: dict = {"incl_ms": {}, "calls": {}, "self_ms": {}, "layer_self_ms": {},
                 "layer_calls": {}, "spectrum_dim_max": 0, "eig_work": 0.0,
                 "kept_sum": 0.0, "kept_n": 0, "refused": 0, "table_bytes_max": 0,
                 "cells": 0, "bytes_written": 0, "criterion_ms_max": 0.0}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        layer = name.split(".", 1)[0]
        ms = (end - start) * 1e3
        self_ms = ms - child_ms[i]
        for key, value in (("incl_ms", ms), ("calls", 1), ("self_ms", self_ms)):
            out[key][name] = out[key].get(name, 0) + value
        if layer in LAYERS:
            out["layer_self_ms"][layer] = out["layer_self_ms"].get(layer, 0.0) + self_ms
            out["layer_calls"][layer] = out["layer_calls"].get(layer, 0) + 1
        attrs = attrs or {}
        if "dim" in attrs:
            out["spectrum_dim_max"] = max(out["spectrum_dim_max"], attrs["dim"])
            out["eig_work"] += float(attrs["dim"]) ** 3
        if "kept" in attrs:
            out["kept_sum"] += attrs["kept"]
            out["kept_n"] += 1
            out["refused"] += int(attrs["refused"])
        out["table_bytes_max"] = max(out["table_bytes_max"], attrs.get("table_bytes", 0))
        out["cells"] += attrs.get("cells", 0)
        out["bytes_written"] += attrs.get("bytes", 0)
        if name.startswith("validation.check_"):
            out["criterion_ms_max"] = max(out["criterion_ms_max"], ms)
    return out


def merge(a: dict, b: dict) -> dict:
    """Combine two summaries: dicts and totals add, ``*_max`` entries take the max."""
    out = dict(a)
    for key, value in b.items():
        if key not in out:
            out[key] = value
        elif isinstance(value, dict):
            merged = dict(out[key])
            for k, v in value.items():
                merged[k] = merged.get(k, 0) + v
            out[key] = merged
        elif key.endswith("_max"):
            out[key] = max(out[key], value)
        else:
            out[key] = out[key] + value
    return out


def jsonable(spans: list[list]) -> list[list]:
    """Spans with attrs reduced to plain numbers (drops the sweep config object)."""
    return [[n, s, e, p, {k: v for k, v in (a or {}).items() if k != "config"}]
            for n, s, e, p, a in spans]
