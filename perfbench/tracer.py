"""Run one benchmark operation in-process with the package's layers traced.

Every public function of each ``suzuki_cd`` module is wrapped, and the
wrapper is bound under every name that holds the original in any
``suzuki_cd.*`` namespace, because several modules import functions by
name.  A span records (function, start, end, parent span, item, family);
the item is the f or order n read from the call's first argument, so
sweeps can be cut into per-item times and orbit enumeration into
per-family times.  Spans stay in memory and are written out once, as
one JSON object on stdout, when the operation ends.

With ``--alloc`` nothing is timed: the cyclotomic functions are wrapped
instead to record the tracemalloc peak of each outermost cyclotomic call.

Usage (package on PYTHONPATH)::

    python3 perfbench/tracer.py '{"kind": "cli", "args": ["verify", "lemmas"]}' [--alloc]
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
import tracemalloc

MODULES = (
    "params",
    "numtheory",
    "cyclotomic",
    "characters",
    "stabilizers",
    "degrees",
    "verification",
    "cli",
)


def public_functions(modules=MODULES):
    """(module, name, function) for every public function defined in a module."""
    for module in modules:
        mod = importlib.import_module(f"suzuki_cd.{module}")
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                yield module, name, obj


def rebind(wrappers: dict[int, object]) -> None:
    """Bind each wrapper wherever a suzuki_cd namespace holds its original."""
    for modname, mod in list(sys.modules.items()):
        if modname == "suzuki_cd" or modname.startswith("suzuki_cd."):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])


def _item_reader(module: str, fn):
    """How to read the sweep item (f or order n) from a call's arguments."""
    params = list(inspect.signature(fn).parameters)
    first = params[0] if params else None
    if first == "p":
        return lambda args: args[0].f
    if first == "spec":
        return lambda args: args[0].params.f
    if first == "f":
        return lambda args: args[0]
    if module == "cyclotomic" and first == "n":
        return lambda args: args[0]
    if module == "cyclotomic" and first == "a":
        return lambda args: args[0].order
    return None


class Tracer:
    """In-memory span recorder; spans[i] = (name, start, end, parent, item, family)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, item_of=None, has_family: bool = False):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            item = item_of(args) if item_of is not None and args else None
            family = args[1].value if has_family and len(args) > 1 else None
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, stack[-1] if stack else -1, item, family)

        return traced

    def install(self) -> None:
        wrappers = {}
        for module, name, fn in public_functions():
            params = list(inspect.signature(fn).parameters)
            wrappers[id(fn)] = self.wrap(
                f"{module}.{name}", fn, _item_reader(module, fn), params[1:2] == ["family"]
            )
        rebind(wrappers)


class AllocProbe:
    """Largest tracemalloc peak over outermost cyclotomic calls, in bytes."""

    def __init__(self) -> None:
        self.peak = 0
        self._depth = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth = 0
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)

        return probed

    def install(self) -> None:
        rebind({id(fn): self.wrap(fn) for _, _, fn in public_functions(("cyclotomic",))})


def _entry(kind: str):
    if kind == "cli":
        from suzuki_cd import cli

        return cli.main
    import large_order

    return large_order.main


def main(argv: list[str]) -> int:
    op = json.loads(argv[0])
    alloc = "--alloc" in argv[1:]
    recorder = AllocProbe() if alloc else Tracer()
    recorder.install()
    entry = _entry(op["kind"])
    if alloc:
        tracemalloc.start()
    else:
        entry = recorder.wrap("bench.op", entry)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = entry(list(op["args"]))
        except SystemExit as exc:
            rc = exc.code
    result = {"rc": rc or 0, "stdout": out.getvalue()}
    if alloc:
        tracemalloc.stop()
        result["alloc_peak_bytes"] = recorder.peak
    else:
        result["names"] = recorder.names
        result["spans"] = recorder.spans
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
