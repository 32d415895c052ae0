"""Benchmark operations on the public API of sigbounds, and their checks.

Operations call the program through module attributes (``bounds.bound``,
``series.evaluate``, ...) looked up at call time, so a tracer that rebinds
those attributes sees every call.  A ``run_*`` function returns what the
operation produced; the matching ``check_*`` function, called after the
timed loop, returns a list of problems (empty when the answer is right)
against a reference that does not come from the code under test:

* certify: the oracle's own validity and attainment verdicts per row;
* analyze: ``golden_check`` against the hand-written ``catalogue.json``
  for catalogue patterns, and the raw-definition ``brute_overlap`` and
  ``brute_variation`` for a fixed share of the raw regexes;
* scan: the independent derivative matcher in ``reference``.
"""

from __future__ import annotations

from sigbounds import bounds, catalogue, characteristics, oracle, series
from sigbounds.bounds import BoundError
from sigbounds.characteristics import CharacteristicsError

import reference


def prepare(op: dict, entries: dict) -> dict:
    """Turn generated data into program values, outside the timed region.

    Raw regexes stay text: compiling them is part of their operation.
    """
    op = dict(op)
    if op["kind"] in ("walk", "constant"):
        op["ts"] = series.TimeSeries(op["series"])
        op["g_enum"] = series.Aggregator(op["g"])
        op["f_enum"] = series.Feature(op["f"])
    if op["kind"] == "cell":
        op["domain"] = series.Domain(op["lo"], op["hi"])
    if op["kind"] in ("catalogue", "raw"):
        op["domain"] = series.Domain(0, op["span"])
    return op


# -- certify ------------------------------------------------------------

def run_cell(op: dict, entries: dict, bound_fn=None):
    return oracle.sharpness_report(
        [entries[op["pattern"]].spec],
        n_range=[op["n"]],
        domains=[op["domain"]],
        bound_fn=bound_fn or bounds.bound,
    )


def check_cell(op: dict, rep, entries: dict) -> list[str]:
    return [f"row failed: {row.to_json()}" for row in rep.failures]


# -- analyze --------------------------------------------------------------

def _analysis(spec, d, ns) -> dict:
    reports, answers = [], []
    for n in ns:
        try:
            reports.append(characteristics.report(spec, d, n))
        except CharacteristicsError as exc:
            answers.append(("report", n, type(exc).__name__))
        for g, f, side in oracle.GF_SUPPORTED:
            try:
                answers.append((g, f, side, n,
                                bounds.bound(g, f, side, spec, n, d).value))
            except BoundError as exc:
                answers.append((g, f, side, n, type(exc).__name__))
    return {"spec": spec, "reports": reports, "answers": answers}


def run_catalogue(op: dict, entries: dict) -> dict:
    return _analysis(entries[op["pattern"]].spec, op["domain"], op["ns"])


def run_raw(op: dict, entries: dict) -> dict:
    spec = series.PatternSpec(name=op["expr"], expr=op["expr"])
    w = characteristics.width(spec)
    return _analysis(spec, op["domain"], (w + 1, w + 2))


def check_catalogue(op: dict, out: dict, entries: dict) -> list[str]:
    entry = entries[op["pattern"]]
    return [f"golden mismatch at n={rep.n}: {m}"
            for rep in out["reports"] for m in catalogue.golden_check(entry,
                                                                      rep)]


def check_raw(op: dict, out: dict, entries: dict) -> list[str]:
    problems = []
    if not op["cross_check"]:
        return problems
    # overlap and variation depend on the domain and cap, not on n
    for rep in out["reports"][:1]:
        want_o = oracle.brute_overlap(out["spec"], rep.domain, rep.cap)
        want_v = oracle.brute_variation(out["spec"], rep.domain, rep.cap)
        if rep.overlap != want_o:
            problems.append(f"overlap {rep.overlap} != brute {want_o}")
        if rep.variation != want_v:
            problems.append(f"variation {rep.variation} != brute {want_v}")
    return problems


# -- scan -----------------------------------------------------------------

def run_scan(op: dict, entries: dict, evaluate_fn=None):
    evaluate = evaluate_fn or series.evaluate
    return evaluate(entries[op["pattern"]].spec, op["f_enum"], op["g_enum"],
                    op["ts"])


def check_scan(op: dict, got, matchers: dict) -> list[str]:
    pat = matchers[op["pattern"]]
    want = reference.evaluate(pat["matcher"], pat["a"], pat["b"], op["f"],
                              op["g"], op["series"])
    if got != want:
        return [f"{op['g']} of {op['f']} = {got}, reference {want}"]
    return []


RUN = {"cell": run_cell, "catalogue": run_catalogue, "raw": run_raw,
       "walk": run_scan, "constant": run_scan}


def checker(patterns: list[dict], entries: dict):
    """``check(op, out)`` for any operation kind."""
    matchers = {p["name"]: dict(p, matcher=reference.Matcher(p["expr"]))
                for p in patterns}
    table = {"cell": check_cell, "catalogue": check_catalogue,
             "raw": check_raw}

    def check(op: dict, out) -> list[str]:
        if op["kind"] in ("walk", "constant"):
            return check_scan(op, out, matchers)
        return table[op["kind"]](op, out, entries)

    return check
