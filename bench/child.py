"""Run one `hndeploy` CLI command inside a workload process, observed from outside.

    python3 bench/child.py MODE OUT_JSONL CLI_ARG...

MODE is one of:
  plain  run the command; record when its first call into montecarlo starts
         (the end of set-up: imports plus argument and config parsing)
  probe  the same, but exit at that moment, before any Monte Carlo work
  trace  also record a span around every call one hndeploy module makes into
         a function of another (as the calling module sees it)
  count  count calls of the hot density callable only; wrapping it under a
         span would inflate every span time above it

Nothing under src/ is edited: wrappers replace module attributes after import.
The record is written as JSON lines to OUT_JSONL when the command ends.
"""

import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
import types

T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("cli", "config", "montecarlo", "distributions", "rng", "geometry",
          "analytic", "numerics")
# (calling module, attribute) pairs called millions of times per run: they are
# only counted, in their own pass, never wrapped in a span.
HOT = {("analytic", "halfplane_pdf")}
# Calls within one module that are still layer boundaries: cli writing the
# sweep CSV, and a sweep estimating each row.
OWN = {("cli", "sweep_csv"), ("cli", "_write_text"), ("montecarlo", "estimate_detection")}


class Tracer:
    """Spans kept in memory; a worker thread's spans hang under the span the
    main thread has open (the call that started the pool)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(fn, args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append({"kind": "span", "id": span_id, "name": name, "start": start,
                                   "end": end, "parent": parent,
                                   "thread": threading.get_ident(), "attrs": extra})
        traced.__wrapped__ = fn
        return traced


def _size(value):
    if isinstance(value, tuple):
        return sum(_size(v) for v in value)
    return int(getattr(value, "size", 1))


def _attrs_for(layer, name):
    """Counts recorded at a boundary, so ratios are measured where the work is."""
    if layer == "rng":
        return lambda fn, args, kwargs, result: {"values": _size(result)}
    if name == "sample_positions":
        return lambda fn, args, kwargs, result: {"sensors": int(result[0].size)}
    if name == "detects_any":
        return lambda fn, args, kwargs, result: {"sensors": int(args[0].size)}
    if name == "estimate_detection":
        def estimate(fn, args, kwargs, result):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            return {"trials": int(result.trials),
                    "workers": int(bound.arguments.get("workers", 1))}
        return estimate
    return None


def _layer_of(fn):
    module = getattr(inspect.unwrap(fn), "__module__", "") or ""
    head, _, tail = module.rpartition(".")
    return tail if head == "hndeploy" and tail in LAYERS else None


def install_spans(tracer, modules, raw_values):
    """Wrap cross-layer calls; count raw 64-bit RNG values wherever they are made."""
    rng = modules["rng"]
    raw = rng.raw_draws

    def counted_raw(*args, **kwargs):
        result = raw(*args, **kwargs)
        raw_values.append(int(result.size))
        return result

    rng.raw_draws = counted_raw
    for caller, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if not isinstance(obj, types.FunctionType) or (caller, attr) in HOT:
                continue
            layer = _layer_of(obj)
            if layer is None or (layer == caller and (caller, attr) not in OWN):
                continue
            target = counted_raw if obj is raw else obj
            setattr(module, attr, tracer.wrap(f"{layer}.{attr}", target, _attrs_for(layer, attr)))


def install_hot_counter(modules):
    """Count calls of the HOT callables that exist; returns a reader of the count."""
    ticks = itertools.count()
    tick = ticks.__next__

    def counted(fn):
        def call(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return call

    for caller, attr in HOT:
        if caller in modules and hasattr(modules[caller], attr):
            setattr(modules[caller], attr, counted(getattr(modules[caller], attr)))
    return lambda: next(ticks)


def install_setup_stamp(cli, record, stop):
    """Stamp the first call cli makes into montecarlo; in probe mode, exit there."""
    def stamped(fn):
        def first_call(*args, **kwargs):
            if record["setup_end"] is None:
                record["setup_end"] = time.perf_counter()
            if stop:
                raise SystemExit(0)
            return fn(*args, **kwargs)
        first_call.__wrapped__ = fn
        return first_call

    for attr, obj in list(vars(cli).items()):
        if isinstance(obj, types.FunctionType) and _layer_of(obj) == "montecarlo":
            setattr(cli, attr, stamped(obj))


def main(argv):
    mode, out_path, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("plain", "probe", "trace", "count"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    record = {"kind": "meta", "start": T_START, "setup_end": None}
    tracer = Tracer()
    raw_values = []
    density_evals = None
    try:
        t_import = time.perf_counter()
        cli = importlib.import_module("hndeploy.cli")
        t_imported = time.perf_counter()
        src = os.path.join(ROOT, "src", "hndeploy")
        if os.path.dirname(os.path.abspath(cli.__file__)) != src:
            print(f"hndeploy imported from {cli.__file__}, not from {src}", file=sys.stderr)
            return 2
        modules = {name: sys.modules[f"hndeploy.{name}"] for name in LAYERS
                   if f"hndeploy.{name}" in sys.modules}
        if mode == "trace":
            tracer.spans.append({"kind": "span", "id": 0, "name": "cli.import", "start": t_import,
                                 "end": t_imported, "parent": None,
                                 "thread": threading.get_ident(), "attrs": None})
            install_spans(tracer, modules, raw_values)
            run = tracer.wrap("cli.main", cli.main)
        else:
            run = cli.main
        if mode == "count":
            density_evals = install_hot_counter(modules)
        install_setup_stamp(cli, record, stop=(mode == "probe"))
        return run(cli_args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
            if mode == "trace":
                fh.write(json.dumps({"kind": "counter", "name": "rng.values",
                                     "value": sum(raw_values)}) + "\n")
            if density_evals is not None:
                fh.write(json.dumps({"kind": "counter", "name": "analytic.density_evals",
                                     "value": density_evals()}) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
