"""Layer tracing from outside the program.

The benchmark does not change ``src/``.  Instead, a :class:`Tracer`
wraps every public function (and every public method of every class)
defined in the layer modules, and installs each wrapper under every name
the original object is reachable by.  ``gpc`` imports ``kernel_gram``
by name, for example, so both ``kernels.kernel_gram`` and
``gpc.kernel_gram`` are replaced.  Module globals are looked up at call
time, so calls made inside a module go through the wrappers too.

Each wrapper records a span: inclusive time, call count, and the time
covered by its child spans.  A layer's self time is the sum of its span
durations minus the time their children cover.  Spans are aggregated
per name as they close rather than stored, which keeps the overhead of
the ~10^5 spans of one pass small.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "data", "kernels", "gpc", "mimic", "classifiers", "analysis")


def span_name(layer: str, qualname: str) -> str:
    """Span name of a wrapped function: ``<layer>.<qualname>``.

    The CLI's ``cmd_<command>`` functions are named after the command
    they implement (``cli.cmd_fit_gpc`` becomes ``cli.fit-gpc``).
    """
    if layer == "cli" and qualname.startswith("cmd_"):
        return "cli." + qualname[4:].replace("_", "-")
    return f"{layer}.{qualname}"


# Counters read off return values: span name -> hook(tracer, args, kwargs, result).


def _ep_fit(tr, args, kwargs, model):
    tr.counters["gpc.ep_sweeps"] += model.ep_iterations


def _select_width(tr, args, kwargs, sigma):
    cands = kwargs.get("candidate_sigmas", args[4] if len(args) > 4 else ())
    tr.counters["mimic.select_width.candidates"] += sum(1 for s in cands if float(s) > 0)
    tr.chosen.setdefault("sigma", []).append(float(sigma))


def _knn_fit_loo(tr, args, kwargs, clf):
    tr.counters["classifiers.knn_fit_loo.k_evaluated"] += len(clf.loo_errors)
    tr.chosen.setdefault("k", []).append(int(clf.k))


def _explain_estimated(tr, args, kwargs, ev):
    tr.counters["mimic.far_field.rows"] += int(bool(ev.far_field))


def _explain_with_fallback(tr, args, kwargs, ev):
    tr.counters["mimic.hessian_fallback.rows"] += int(ev.source == "hessian-fallback")


_HOOKS = {
    "gpc.ep_fit": _ep_fit,
    "mimic.select_width": _select_width,
    "classifiers.knn_fit_loo": _knn_fit_loo,
    "mimic.explain_estimated": _explain_estimated,
    "mimic.explain_with_fallback": _explain_with_fallback,
}


class Tracer:
    """Aggregated spans and counters for the layer modules of one package.

    Use as a context manager: wrappers are installed on entry and the
    original objects restored on exit.  One tracer is one measurement;
    make a new one per pass.
    """

    def __init__(self, package: str = "localgrad"):
        self.package = package
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(float)
        self.chosen = {}  # values the program selected (k, sigma), in call order
        self.spans = set()  # every span name that was installed
        self._stack = []  # child time accumulated by each open span
        self._patches = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        hook = _HOOKS.get(name)
        calls, seconds, self_seconds, stack = self.calls, self.seconds, self.self_seconds, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[name] += 1
                seconds[name] += dur
                self_seconds[layer] += dur - child
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def __enter__(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{self.package}.{layer}")
            except ModuleNotFoundError:  # a layer folded into another: its metrics read as missing
                continue
        namespaces = [importlib.import_module(self.package), *modules.values()]
        replace = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = span_name(layer, attr)
                    self.spans.add(name)
                    replace[id(obj)] = self._wrap(obj, name, layer)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = span_name(layer, f"{attr}.{meth}")
                        self.spans.add(name)
                        self._patch(obj, meth, self._wrap(fn, name, layer))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patch(ns, attr, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False
