"""Per-layer spans and counters for one coxgrowth CLI process, installed from outside.

A layer is one coxgrowth module.  :meth:`Tracer.install` wraps every public
function of the seven layer modules, and every public method (plus the
constructor and operator methods) of every public class defined in them,
except the ``Poly`` value type, whose operations are the inner loop of every
``ratfunc`` span and would only add overhead.  A function is rebound in every
coxgrowth module that holds it, because ``growth``, ``census``, ``cli`` and
``oracle`` each import their own reference to ``classify``; methods are
patched on the class.

A span is recorded only where a call crosses into another group: a group is
the callee's layer, except that ``verify_identity`` and the
``GeometricOracle`` methods form groups of their own so that their inclusive
time can be reported.  Calls inside the current group only bump a counter.
Spans (name, start, end, parent) are kept in flat arrays and written by
:meth:`Tracer.write` at the end of the process; :func:`summarize` turns them
into per-layer self time, a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("coxeter", "classify", "ratfunc", "growth", "oracle", "census", "cli")

_DUNDERS = frozenset({"__init__", "__call__", "__neg__", "__add__", "__radd__",
                      "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__"})
_SKIP_CLASSES = frozenset({"Poly"})
_OWN_GROUP = {"growth.verify_identity": "growth.identity"}
_OWN_GROUP_CLASSES = {"GeometricOracle": "oracle.geometric"}


class Tracer:
    """Spans and counters of one process; install once, write once."""

    def __init__(self):
        self.names = []              # span name table
        self.groups = []             # group of each name
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls = {}              # qualified name -> [count]
        self.stack = [(None, -1)]    # (group, span index)
        self.spherical = {}          # matrix -> number of spherical subsets
        self.max_degree = 0
        self.sphere_lens = {}        # id(oracle) -> (oracle, {k: len(sphere k)})
        self.seen_classes = {}       # id -> braid class counted as stored (kept alive)
        self.words_stored = 0
        self.records_emitted = 0
        self.horizon_errors = 0

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {layer: sys.modules[f"coxgrowth.{layer}"] for layer in LAYERS}
        holders = [m for name, m in sys.modules.items()
                   if name == "coxgrowth" or name.startswith("coxgrowth.")]
        hooks = self._hooks()
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if attr not in _SKIP_CLASSES and not issubclass(obj, (BaseException, tuple)):
                        self._wrap_class(layer, obj, hooks)
                elif (inspect.isfunction(inspect.unwrap(obj))
                      and not inspect.isgeneratorfunction(inspect.unwrap(obj))):
                    qual = f"{layer}.{attr}"
                    wrapper = self._wrap(layer, _OWN_GROUP.get(qual, layer), qual, obj,
                                         hooks.get(qual))
                    for holder in holders:
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                setattr(holder, name, wrapper)

    def _wrap_class(self, layer, cls, hooks):
        group = _OWN_GROUP_CLASSES.get(cls.__name__, layer)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(
                    self._wrap(layer, group, qual, obj.__func__, hooks.get(qual))))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                setattr(cls, attr, self._wrap(layer, group, qual, obj, hooks.get(qual)))

    def _wrap(self, layer, group, qual, fn, hook):
        name_id = len(self.names)
        self.names.append(qual)
        self.groups.append(group)
        count = self.calls.setdefault(qual, [0])
        stack = self.stack
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        clock = time.perf_counter
        on_error = self._on_error

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            top_group, top_index = stack[-1]
            if top_group == group:
                result = fn(*args, **kwargs)
            else:
                index = len(starts)
                names.append(name_id)
                parents.append(top_index)
                ends.append(0.0)
                stack.append((group, index))
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    on_error(layer, exc)
                    raise
                finally:
                    ends[index] = clock()
                    stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _on_error(self, layer, exc):
        if layer == "oracle" and type(exc).__name__ == "OracleHorizonError":
            self.horizon_errors += 1

    # -- counters read at the wrapped boundaries ----------------------------

    def _hooks(self):
        def spherical(args, result):
            self.spherical[args[0]] = len(result)

        def ratfunc_built(args, result):
            rf = args[0]
            self.max_degree = max(self.max_degree, rf.num.degree, rf.den.degree)

        def sphere(args, result):
            oracle, k = args[0], args[1]
            self.sphere_lens.setdefault(id(oracle), (oracle, {}))[1][k] = len(result)

        def braid_class(args, result):
            if id(result) not in self.seen_classes:
                self.seen_classes[id(result)] = result
                self.words_stored += len(result)

        def enumerated(args, result):
            self.records_emitted += len(result)

        return {
            "classify.spherical_subsets": spherical,
            "ratfunc.RatFunc.__init__": ratfunc_built,
            "oracle.WordOracle.sphere": sphere,
            "oracle.WordOracle.braid_class": braid_class,
            "census.enumerate_simplices": enumerated,
        }

    # -- output ---------------------------------------------------------------

    def counters(self) -> dict:
        def calls(name):
            return self.calls.get(name, [0])[0]

        return {
            "coxeter.parse_calls": calls("coxeter.parse_coxeter_file"),
            "classify.calls": calls("classify.classify"),
            "classify.spherical": sum(self.spherical.values()),
            "ratfunc.gcd_calls": calls("ratfunc.poly_gcd"),
            "ratfunc.ratfuncs_built": calls("ratfunc.RatFunc.__init__"),
            "ratfunc.max_degree": self.max_degree,
            "growth.tables_built": calls("growth.GrowthTable.__init__"),
            "oracle.elements": sum(sum(lens.values()) for _, lens in self.sphere_lens.values()),
            "oracle.words_stored": self.words_stored,
            "oracle.horizon_errors": self.horizon_errors,
            "census.enumerations": calls("census.enumerate_simplices"),
            "census.records_emitted": self.records_emitted,
        }

    def write(self, path):
        """Write the name table and the span arrays to ``path``."""
        with open(path, "wb") as handle:
            header = "\n".join(f"{n}\t{g}" for n, g in zip(self.names, self.groups))
            encoded = header.encode()
            array("q", [len(encoded), len(self.span_start)]).tofile(handle)
            handle.write(encoded)
            for column in (self.span_name, self.span_start, self.span_end, self.span_parent):
                column.tofile(handle)


def read_spans(path):
    """Inverse of :meth:`Tracer.write`: (names, groups, name, start, end, parent)."""
    with open(path, "rb") as handle:
        sizes = array("q")
        sizes.fromfile(handle, 2)
        header_len, count = sizes
        names, groups = [], []
        for line in handle.read(header_len).decode().splitlines():
            name, group = line.split("\t")
            names.append(name)
            groups.append(group)
        columns = [array(code) for code in "Iddi"]
        for column in columns:
            column.fromfile(handle, count)
    return (names, groups, *columns)


def summarize(path) -> dict:
    """Self time per layer and inclusive time per own group, from a span file."""
    names, groups, name_ids, starts, ends, parents = read_spans(path)
    layers = [n.split(".", 1)[0] for n in names]
    duration = [e - s for s, e in zip(starts, ends)]
    self_time = list(duration)
    for index, parent in enumerate(parents):
        if parent >= 0:
            self_time[parent] -= duration[index]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for group in (*_OWN_GROUP.values(), *_OWN_GROUP_CLASSES.values()):
        out[f"{group}_s"] = 0.0
    for index, name_id in enumerate(name_ids):
        out[f"{layers[name_id]}.self_s"] += self_time[index]
        group = groups[name_id]
        if group not in LAYERS:
            out[f"{group}_s"] += duration[index]
    return out
