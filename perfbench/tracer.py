"""Spans and counters around the calls into each sigbounds module.

The tracer rebinds, from outside the package, every public function a layer
module defines, in every ``sigbounds`` module that holds a binding of it
(``oracle.maximal_occurrences``, ``properties.maximal_occurrences`` and
the like are the same objects imported by value).  Each call then records a
span (name, start, end, parent) into flat arrays kept in memory; the spans
are written out once, when the block ends.

The methods ``Automaton.words_up_to`` and ``Automaton.intersect`` get
spans too.  Some names get a counter instead, and some nothing, because they
run in the innermost loops and a span each would cost far more than their
own work: ``Automaton.step`` and ``Automaton.accepts`` are counted (their
time stays in their callers' self time), ``enumerate_series`` counts the
series it yields, and the letter- and word-level helpers in ``UNTRACED``
are left alone.  Other generator functions are not spanned, since a call
returns before any work is done.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import types
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("sigregex", "series", "characteristics", "properties", "bounds",
          "oracle", "catalogue")

UNTRACED = frozenset({
    "sigregex.check_word", "sigregex.word_key", "sigregex.concat",
    "sigregex.union", "sigregex.star", "sigregex.plus", "sigregex.optional",
    "sigregex.nullable", "sigregex.render", "series.fmt_ext",
    "series.ext_to_json", "series.signature", "series.word_height",
    "series.feature_of",
})

PROPERTY_CHECKS = ("nb_simple", "nb_overlap", "nb_no_overlap", "width_max",
                   "width_sum", "width_occurrence")


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_"):
            continue
        if not isinstance(value, (types.FunctionType,
                                  functools._lru_cache_wrapper)):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        yield attr, value


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self._undo: list[tuple[object, str, object]] = []
        self._paused = False

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ":raised"] += 1
                raise
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            if after is not None:
                self._paused = True
                try:
                    after(args, kwargs, result)
                finally:
                    self._paused = False
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    # -- hooks ------------------------------------------------------------

    def _cap_key(self, kind: str, default_cap):
        def after(args, kwargs, result):
            spec = args[0]
            d = args[1] if len(args) > 1 else kwargs["d"]
            cap = args[2] if len(args) > 2 else kwargs.get("cap")
            if cap is None:
                cap = default_cap(spec)
            self.keys[kind].add((spec, d.span, cap))

        return after

    def _add_len(self, name: str):
        def after(args, kwargs, result):
            self.counts[name] += len(result)

        return after

    def _rows_checked(self, args, kwargs, result):
        self.counts["oracle.rows_checked"] += sum(
            1 for r in result.rows if r.skip is None)

    # -- install ----------------------------------------------------------

    def install(self) -> None:
        """Rebind the layer functions in every loaded sigbounds module."""
        from sigbounds import sigregex

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "sigbounds" or name.startswith("sigbounds.")}
        found = [(f"{layer}.{attr}", fn) for layer in LAYERS
                 for attr, fn in _public_functions(
                     modules["sigbounds." + layer])]
        default_cap = modules["sigbounds.characteristics"].default_cap
        after = {
            "characteristics.overlap": self._cap_key("overlap", default_cap),
            "characteristics.smallest_variation": self._cap_key(
                "variation", default_cap),
            "series.maximal_occurrences": self._add_len(
                "series.occurrences_found"),
            "oracle.sharpness_report": self._rows_checked,
        }
        by_id = {}
        for name, fn in found:
            if name == "series.enumerate_series":
                wrapper = self._yield_counter("series.series_enumerated", fn)
            elif name in UNTRACED or inspect.isgeneratorfunction(fn):
                continue
            else:
                wrapper = self._span(name, fn, after.get(name))
            by_id[id(fn)] = (fn, wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, attr, hit[1])
        aut = sigregex.Automaton
        self._rebind(aut, "words_up_to",
                     self._span("sigregex.words_up_to", aut.words_up_to,
                                self._add_len("sigregex.words_listed")))
        self._rebind(aut, "intersect",
                     self._span("sigregex.intersect", aut.intersect))
        for attr in ("step", "accepts"):
            self._rebind(aut, attr, self._counter(f"sigregex.{attr}_calls",
                                                  getattr(aut, attr)))

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def region(self, name: str):
        """A callable ``region(fn, *args)`` that runs fn under one span, so
        every span of one operation shares that span as its root."""
        return self._span(name, lambda fn, *args: fn(*args))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"names": self.names,
                       "fields": ["name", "parent", "start_s", "end_s"]},
                      out)
            out.write("\n")
            for i in range(len(self.start)):
                out.write(json.dumps([self.name_id[i], self.parent[i],
                                      self.start[i], self.end[i]]))
                out.write("\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        total = defaultdict(float)
        self_by_layer = defaultdict(float)
        sweep_children = 0.0
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += dur
            self_by_layer[name.split(".", 1)[0]] += dur - child[i]
            p = self.parent[i]
            if (name == "bounds.bound" and p >= 0
                    and self.names[self.name_id[p]]
                    == "oracle.sharpness_report"):
                sweep_children += dur

        def ms(seconds: float) -> float:
            return seconds * 1000.0

        c = self.counts
        o_calls = calls["characteristics.overlap"]
        v_calls = calls["characteristics.smallest_variation"]
        keys = len(self.keys["overlap"]) + len(self.keys["variation"])
        base = o_calls + v_calls
        return {
            "characteristics.overlap_calls": o_calls,
            "characteristics.overlap_keys": len(self.keys["overlap"]),
            "characteristics.overlap_ms": ms(
                total["characteristics.overlap"]),
            "characteristics.variation_calls": v_calls,
            "characteristics.variation_keys": len(self.keys["variation"]),
            "characteristics.variation_ms": ms(
                total["characteristics.smallest_variation"]),
            "characteristics.recompute_ratio": (
                (base - keys) / base if base else 0.0),
            "characteristics.recompute_base": base,
            "characteristics.shift_calls": calls["characteristics.shift"],
            "characteristics.shift_ms": ms(total["characteristics.shift"]),
            "characteristics.report_ms": ms(total["characteristics.report"]),
            "characteristics.self_ms": ms(self_by_layer["characteristics"]),
            "properties.nb_overlap_ms": ms(total["properties.nb_overlap"]),
            "properties.nb_no_overlap_ms": ms(
                total["properties.nb_no_overlap"]),
            "properties.check_calls": sum(
                calls["properties." + p] for p in PROPERTY_CHECKS),
            "properties.self_ms": ms(self_by_layer["properties"]),
            "bounds.bound_calls": calls["bounds.bound"],
            "bounds.bound_refused": c["bounds.bound:raised"],
            "bounds.bound_self_ms": ms(self_by_layer["bounds"]),
            "oracle.sweep_self_ms": ms(
                total["oracle.sharpness_report"] - sweep_children),
            "oracle.rows_checked": c["oracle.rows_checked"],
            "series.series_enumerated": c["series.series_enumerated"],
            "series.maximal_occurrences_calls": calls[
                "series.maximal_occurrences"],
            "series.maximal_occurrences_ms": ms(
                total["series.maximal_occurrences"]),
            "series.occurrences_found": c["series.occurrences_found"],
            "series.evaluate_ms": ms(total["series.evaluate"]),
            "series.self_ms": ms(self_by_layer["series"]),
            "sigregex.step_calls": c["sigregex.step_calls"],
            "sigregex.accepts_calls": c["sigregex.accepts_calls"],
            "sigregex.words_up_to_ms": ms(total["sigregex.words_up_to"]),
            "sigregex.words_listed": c["sigregex.words_listed"],
            "sigregex.intersect_calls": calls["sigregex.intersect"],
            "sigregex.intersect_ms": ms(total["sigregex.intersect"]),
            "sigregex.compile_calls": calls["sigregex.compile"],
            "sigregex.compile_ms": ms(total["sigregex.compile"]),
            "sigregex.self_ms": ms(self_by_layer["sigregex"]),
            "catalogue.load_ms": ms(total["catalogue.all_entries"]),
        }
