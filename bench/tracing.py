"""Spans around surface_lab's public functions, recorded from outside.

``Tracer.install`` wraps every public function defined in the nine layer
modules and rebinds each module attribute (in the layer modules and the
package namespace) that refers to one, so callers that look the name up at
call time reach the wrapper.  Nothing under src/ is edited.

The wrappers cannot see:

* calls through a reference taken before installation, notably the
  ``_wp=weierstrass_p`` default of ``legendre_params``: its four wp calls
  count as legendre_params self time;
* private helpers (``_reduce``, ``_csc2``, ``_theta_nulls``, row operations
  of the Smith reduction, the ``_check_*`` functions of checks), methods and
  properties of classes: their time lands in the calling public function;
* module import, which happens before installation.

Spans are kept in memory as parallel integer arrays and written out once,
at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

LAYER_MODULES = (
    "integer_algebra",
    "affine_groups",
    "orbifold_covers",
    "product_threefold",
    "picard_lattice",
    "character_calculus",
    "legendre_numerics",
    "checks",
    "cli",
)

FIELDS = ["name", "start_ns", "end_ns", "parent", "op"]


def _is_function(value) -> bool:
    """A plain function, or one behind a functools wrapper such as lru_cache."""
    return inspect.isfunction(value) or inspect.isfunction(getattr(value, "__wrapped__", None))


def _public_function_of(mod, attr: str, value) -> bool:
    return (
        _is_function(value)
        and not attr.startswith("_")
        and getattr(value, "__module__", None) == mod.__name__
    )


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, label: str) -> int:
        nid = self.name_ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        return nid

    def _wrap(self, label: str, fn):
        nid = self._name_id(label)
        name, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("surface_lab")
        modules = [importlib.import_module(f"surface_lab.{m}") for m in LAYER_MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if _public_function_of(mod, attr, value):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        for mod in (package, *modules):
            for attr, value in list(vars(mod).items()):
                if _is_function(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def export(self) -> dict:
        return {
            "names": self.names,
            "fields": FIELDS,
            "spans": [
                list(s)
                for s in zip(self.name, self.start, self.end, self.parent, self.op)
            ],
        }

    def absorb(self, doc: dict, op_id: int) -> None:
        """Append spans exported by another process, relabelled as op op_id."""
        offset = len(self)
        for nid, s, e, p, _ in doc["spans"]:
            self.name.append(self._name_id(doc["names"][nid]))
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + offset if p >= 0 else -1)
            self.op.append(op_id)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in seconds).

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        for i, nid in enumerate(self.name):
            label = self.names[nid]
            calls[label] += 1
            total[label] += self.end[i] - self.start[i] - child[i]
        return {k: (calls[k], total[k] * 1e-9) for k in calls}

    def write(self, path) -> None:
        """JSON lines: a header with the span names, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "fields": FIELDS}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write("[%d,%d,%d,%d,%d]\n" % row)
