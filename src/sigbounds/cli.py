"""Command-line front end.

Five subcommands: ``chars`` reports characteristics, ``bound`` prints one
closed-form bound, ``eval`` runs a constraint on a concrete series,
``verify`` certifies bounds against exhaustive enumeration, and ``table``
emits the catalogue tables.  Exit codes: 0 success, 1 verification
failures, 2 bad input, 3 bound not applicable or not supported, 4 budget
exceeded; every command's errors reach 2, 3 and 4 through ``_command``.
"""

from __future__ import annotations

import csv
import json
import sys
from collections import Counter
from functools import wraps
from itertools import groupby
from typing import NoReturn, Optional, Sequence

import click

from . import __version__
from . import bounds as bounds_mod
from . import catalogue as catalogue_mod
from . import characteristics as chars_mod
from . import oracle as oracle_mod
from . import properties as props_mod
from .bounds import BoundError, Side
from .catalogue import UnknownPatternError
from .characteristics import CharacteristicsError
from .oracle import DEFAULT_BUDGET, GF_SUPPORTED, BudgetExceededError
from .series import (
    Aggregator,
    Domain,
    Feature,
    Occurrence,
    PatternSpec,
    SeriesError,
    TimeSeries,
    _features,
    _maximal_spans,
    aggregate,
    ext_to_json,
    fmt_ext,
)
from .sigregex import ALPHABET, RegexError, word_key

SCHEMA_VERSION = 1

# every way user input can be at fault
_INPUT_ERRORS = (
    RegexError,
    SeriesError,
    CharacteristicsError,
    UnknownPatternError,
    ValueError,
)

_GF_ALIASES = {"nb": (Aggregator.SUM, Feature.ONE)}


def _gf_token(g: Aggregator, f: Feature) -> str:
    """The alias of (g, f) if it has one, else ``<agg>_<feature>``."""
    for token, gf in _GF_ALIASES.items():
        if gf == (g, f):
            return token
    return f"{g.value}_{f.value}"


# the supported combinations grouped by their token, in table order
_VERIFY_GF = {
    token: tuple(c for c in GF_SUPPORTED if _gf_token(c[0], c[1]) == token)
    for token in dict.fromkeys(_gf_token(g, f) for g, f, _ in GF_SUPPORTED)
}


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _resolve(token: str) -> PatternSpec:
    """Catalogue name, alias, or raw expression with zero trims.

    A name that is not in the catalogue is read as an expression only if it
    holds a letter of the alphabet or nothing but regex syntax, so that a
    mistyped name such as ``peak1`` keeps its suggestion.
    """
    try:
        return catalogue_mod.lookup(token).spec
    except UnknownPatternError:
        syntax_only = token.strip() and all(
            ch in "01()|*+?" or ch.isspace() for ch in token)
        if syntax_only or any(ch in ALPHABET for ch in token):
            return PatternSpec(name=token, expr=token)
        raise


def _parse_gf(token: str) -> tuple[Aggregator, Feature]:
    t = token.lower()
    if t in _GF_ALIASES:
        return _GF_ALIASES[t]
    g_s, _, f_s = t.partition("_")
    aggs = {a.value: a for a in Aggregator}
    feats = {f.value: f for f in Feature}
    if g_s in aggs and f_s in feats:
        return aggs[g_s], feats[f_s]
    raise ValueError(
        f"unknown aggregator/feature token {token!r}; use "
        f"{', '.join(_VERIFY_GF)} or <agg>_<feature> with agg in "
        f"{'/'.join(aggs)} and feature in {'/'.join(feats)}"
    )


def _emit_json(payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _emit_table(fmt: str, headers: Sequence[str],
                rows: Sequence[Sequence[str]]) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return
    if fmt == "md":
        click.echo("| " + " | ".join(headers) + " |")
        click.echo("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            # a | inside a cell would end it
            click.echo("| " + " | ".join(c.replace("|", r"\|") for c in row)
                       + " |")
        return
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    click.echo("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        click.echo("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))


def _format_option(fn):
    return click.option(
        "--format", "fmt",
        type=click.Choice(["human", "json", "md", "csv"]),
        default="human", show_default=True,
        help="output format",
    )(fn)


def _fit_cells(rep: chars_mod.CharacteristicsReport) -> list[str]:
    """The range fit's e and c, "-" without a fit, and the inducing words
    in word order, as ``chars`` and ``table characteristics`` print them."""
    fit = rep.range_params or ("-", "-")
    return [*map(str, fit), " ".join(sorted(rep.inducing, key=word_key))]


@click.group()
@click.version_option(version=__version__, prog_name="sigbounds")
def main() -> None:
    """Signature-regex characteristics, bounds and brute-force certification."""


def _command(name: str):
    """Register a subcommand of ``main`` whose body runs inside the one
    error boundary: no bound exits 3, an exceeded budget 4, bad input 2."""
    def register(fn):
        @wraps(fn)
        def bounded(**params):
            try:
                return fn(**params)
            except BoundError as exc:
                _fail(3, str(exc))
            except BudgetExceededError as exc:
                _fail(4, str(exc))
            except _INPUT_ERRORS as exc:
                _fail(2, str(exc))
        return main.command(name)(bounded)
    return register


# --------------------------------------------------------------------------
# chars

@_command("chars")
@click.argument("pattern")
@click.option("--lo", type=int, default=0, show_default=True, help="domain lower end")
@click.option("--hi", type=int, default=1, show_default=True, help="domain upper end")
@click.option("--n", type=int, default=None,
              help="series length for the range characteristic; defaults to width+1")
@click.option("--cap", type=int, default=None,
              help="word-length cap for overlap/variation search")
@_format_option
def cmd_chars(pattern: str, lo: int, hi: int, n: Optional[int],
              cap: Optional[int], fmt: str) -> None:
    """Compute all characteristics of PATTERN over the domain [lo, hi]."""
    spec = _resolve(pattern)
    d = Domain(lo, hi)
    if n is None:
        n = max(2, chars_mod.width(spec) + 1)
    elif n < 2:
        raise ValueError("series length must be at least 2")
    rep = chars_mod.report(spec, d, n, cap)
    if fmt == "json":
        _emit_json(rep.to_json())
        return
    e_s, c_s, inducing = _fit_cells(rep)
    if fmt in ("md", "csv"):
        headers = ["pattern", "expr", "a", "b", "domain", "n", "cap",
                   "width", "height", "range", "e", "c", "inducing",
                   "overlap", "variation"]
        row = [spec.name, spec.expr, str(spec.a), str(spec.b), str(d),
               str(n), str(rep.cap), str(rep.omega), str(rep.eta),
               str(rep.range_at_n), e_s, c_s, inducing,
               str(rep.overlap), str(rep.variation)]
        _emit_table(fmt, headers, [row])
        return
    click.echo(f"pattern   : {spec.name}")
    click.echo(f"expr      : {spec.expr}  (a={spec.a}, b={spec.b})")
    click.echo(f"domain    : [{d.lo},{d.hi}]  n={n}  cap={rep.cap}")
    click.echo(f"width     : {rep.omega}")
    click.echo(f"height    : {rep.eta}")
    click.echo(f"range     : {rep.range_at_n}")
    click.echo(f"range fit : e={e_s} c={c_s}")
    click.echo(f"inducing  : {inducing}")
    click.echo(f"overlap   : {rep.overlap}")
    click.echo(f"variation : {rep.variation}")


# --------------------------------------------------------------------------
# bound

@_command("bound")
@click.argument("gf")
@click.argument("pattern")
@click.option("--side", type=click.Choice(["lower", "upper"]), required=True)
@click.option("--n", type=int, required=True, help="series length")
@click.option("--lo", type=int, default=0, show_default=True)
@click.option("--hi", type=int, default=1, show_default=True)
@_format_option
def cmd_bound(gf: str, pattern: str, side: str, n: int, lo: int, hi: int,
              fmt: str) -> None:
    """Closed-form bound for the GF result variable of PATTERN.

    GF is nb, max_width, sum_width, min_width or <agg>_<feature>.
    """
    g, f = _parse_gf(gf)
    spec = _resolve(pattern)
    d = Domain(lo, hi)
    res = bounds_mod.bound(g, f, Side(side), spec, n, d)
    if fmt == "json":
        payload = {
            "pattern": spec.name, "g": g.value, "f": f.value,
            "n": n, "domain": str(d),
        }
        payload.update(res.to_json())
        _emit_json(payload)
        return
    pre = " ".join(
        f"{label}={'ok' if holds else 'FAILED'}"
        for label, holds in res.preconditions
    ) or "-"
    if fmt in ("md", "csv"):
        headers = ["pattern", "g", "f", "side", "n", "domain", "value",
                   "sharp", "source", "m_used", "preconditions"]
        row = [spec.name, g.value, f.value, res.side.value, str(n), str(d),
               fmt_ext(res.value), str(res.sharp).lower(), res.source,
               "-" if res.m_used is None else fmt_ext(res.m_used), pre]
        _emit_table(fmt, headers, [row])
        return
    click.echo(f"pattern       : {spec.name}")
    click.echo(f"bound         : {g.value} of {f.value}, {res.side.value} side")
    click.echo(f"n             : {n}  domain: [{d.lo},{d.hi}]")
    click.echo(f"value         : {fmt_ext(res.value)}")
    click.echo(f"sharp         : {'yes' if res.sharp else 'no'}")
    click.echo(f"source        : {res.source}")
    if res.m_used is not None:
        click.echo(f"m_used        : {fmt_ext(res.m_used)}")
    click.echo(f"preconditions : {pre}")


# --------------------------------------------------------------------------
# eval

@_command("eval")
@click.argument("gf")
@click.argument("pattern")
@click.option("--series", required=True, help="comma-separated integers")
@_format_option
def cmd_eval(gf: str, pattern: str, series: str, fmt: str) -> None:
    """Evaluate the GF constraint on a concrete series."""
    g, f = _parse_gf(gf)
    spec = _resolve(pattern)
    if series == "-":
        series = click.get_text_stream("stdin").read()
    t = TimeSeries.from_text(series)
    spans = _maximal_spans(spec, t.values)
    feats = _features(spec, f, t.values, spans)
    value = aggregate(g, feats)
    details = []
    for (i, j), feat in zip(spans, feats):
        trim_lo, trim_hi = Occurrence(i, j).trimmed(spec.a, spec.b)
        details.append({"i": i, "j": j, "trim_lo": trim_lo,
                        "trim_hi": trim_hi, f.value: feat})
    if fmt == "json":
        _emit_json({
            "pattern": spec.name, "g": g.value, "f": f.value,
            "series": str(t), "value": ext_to_json(value),
            "occurrences": details,
        })
        return
    if fmt in ("md", "csv"):
        headers = ["i", "j", "trim_lo", "trim_hi", f.value]
        rows = [[str(dd[h]) for h in headers] for dd in details]
        _emit_table(fmt, headers, rows)
        click.echo(f"{g.value} of {f.value} = {fmt_ext(value)}")
        return
    click.echo(f"pattern     : {spec.name}  (expr {spec.expr}, a={spec.a}, b={spec.b})")
    click.echo(f"series      : {t}  (length {len(t)})")
    click.echo(f"occurrences : {len(details)}")
    for dd in details:
        click.echo(
            f"  ({dd['i']},{dd['j']})  trimmed {dd['trim_lo']}..{dd['trim_hi']}"
            f"  {f.value}={dd[f.value]}"
        )
    click.echo(f"{g.value} of {f.value} = {fmt_ext(value)}")


# --------------------------------------------------------------------------
# verify

@_command("verify")
@click.argument("names", nargs=-1)
@click.option("--all", "run_all", is_flag=True, help="verify every catalogue pattern")
@click.option("--gf", "gf_tokens", multiple=True,
              type=click.Choice(sorted(_VERIFY_GF)),
              help="restrict to these result variables; repeatable")
@click.option("--max-n", type=int, default=7, show_default=True,
              help="check every series length from 2 to this")
@click.option("--domains", default="0:1,0:2,0:3", show_default=True,
              help="comma-separated lo:hi domains")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True,
              help="series-enumeration budget")
@_format_option
def cmd_verify(names: tuple[str, ...], run_all: bool,
               gf_tokens: tuple[str, ...], max_n: int, domains: str,
               budget: int, fmt: str) -> None:
    """Certify bounds against exhaustive enumeration; exit 0 iff all pass."""
    if run_all:
        specs = [entry.spec for entry in catalogue_mod.all_entries()]
    elif names:
        specs = [_resolve(name) for name in names]
    else:
        raise ValueError("give pattern names or --all")
    for spec in specs:
        chars_mod.width(spec)  # refuses a language with no nonempty word
    doms = tuple(Domain.parse(tok) for tok in domains.split(","))
    if max_n < 2:
        raise ValueError("--max-n must be at least 2")
    # no token walks every group, that is GF_SUPPORTED in rule order
    gf_list = tuple(dict.fromkeys(
        combo for tok in gf_tokens or _VERIFY_GF for combo in _VERIFY_GF[tok]))
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    rep = oracle_mod.sharpness_report(
        specs,
        gf_list=gf_list,
        n_range=range(2, max_n + 1),
        domains=doms,
        budget=budget,
    )
    if fmt == "json":
        _emit_json(rep.to_json())
    elif fmt in ("md", "csv"):
        headers = oracle_mod.SweepRow._fields
        rows = [list(map(_cell, r.to_json().values())) for r in rep.rows]
        _emit_table(fmt, headers, rows)
    else:
        s = rep.summary()
        click.echo(
            f"patterns {len(specs)}  combos {len(gf_list)}  n 2..{max_n}  "
            f"domains {' '.join(str(dm) for dm in doms)}"
        )
        click.echo(
            f"rows {s['rows']}  checked {s['checked']}  "
            f"skipped {s['skipped']}  failed {s['failed']}  "
            f"sharp confirmed {s['sharp_confirmed']}"
        )
        reasons = Counter(row.skip for row in rep.skips)
        if reasons:
            click.echo("skip reasons:")
            for reason, count in sorted(reasons.items()):
                click.echo(f"  {count:4d}  {reason}")
        for row in rep.failures:
            j = row.to_json()
            click.echo(
                f"FAIL {j['pattern']} {j['g']}_{j['f']} {j['side']} "
                f"n={j['n']} d={j['domain']}: bound {j['bound']} "
                f"brute [{j['brute_min']}, {j['brute_max']}] "
                f"counterexample {j['counterexample']}"
            )
        click.echo("PASS" if rep.ok else "FAIL")
    sys.exit(0 if rep.ok else 1)


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return str(v).lower()
    return str(v)


# --------------------------------------------------------------------------
# table

# the classes of properties.overlap_class in table order; a class's label
# is its name title-cased
_CLASS_ORDER = ["overlapping", "non-overlapping", "mixed", "special",
                "unclassified"]


@_command("table")
@click.argument("which", type=click.Choice(["patterns", "characteristics",
                                            "properties"]))
@click.option("--diff-golden", is_flag=True,
              help="characteristics: add a column comparing against the "
                   "catalogue reference values")
@_format_option
def cmd_table(which: str, diff_golden: bool, fmt: str) -> None:
    """Emit a catalogue table: patterns, characteristics or properties."""
    entries = catalogue_mod.all_entries()
    if which == "patterns":
        headers = ["name", "expr", "a", "b"]
        rows = [[e.name, e.expr, str(e.a), str(e.b)] for e in entries]
        dicts = [
            {"name": e.name, "expr": e.expr, "a": e.a, "b": e.b}
            for e in entries
        ]
    elif which == "characteristics":
        headers = ["name", "width", "height", "e", "c", "inducing",
                   "overlap", "variation", "range", "span", "n"]
        if diff_golden:
            headers.append("diff")
        rows = []
        dicts = []
        for entry in entries:
            spec = entry.spec
            span = entry.eta + 2
            n = max(2, entry.omega + 1)
            rep = chars_mod.report(spec, Domain(0, span), n)
            row = [entry.name, str(rep.omega), str(rep.eta),
                   *_fit_cells(rep), str(rep.overlap), str(rep.variation),
                   str(rep.range_at_n), str(span), str(n)]
            payload = rep.to_json()
            if diff_golden:
                mismatches = catalogue_mod.golden_check(entry, rep)
                row.append(
                    "ok" if not mismatches
                    else "; ".join(m["field"] for m in mismatches)
                )
                payload["golden_mismatches"] = mismatches
            rows.append(row)
            dicts.append(payload)
    else:
        headers = ["name", "class", "overlap_at_height", "overlap_wider"]
        keyed = []
        for entry in entries:
            spec = entry.spec
            cls = props_mod.overlap_class(spec)
            o_eta = chars_mod.overlap(spec, Domain(0, entry.eta))
            o_wide = chars_mod.overlap(spec, Domain(0, entry.eta + 2))
            keyed.append((cls, entry.name, str(o_eta), str(o_wide)))
        keyed.sort(key=lambda item: (_CLASS_ORDER.index(item[0]), item[1]))
        rows = [[name, cls.title(), o1, o2] for cls, name, o1, o2 in keyed]
        dicts = [dict(zip(headers, row)) for row in rows]
        if fmt == "human":
            for cls, group in groupby(keyed, key=lambda item: item[0]):
                click.echo(f"{cls.title()}:")
                for _, name, o1, o2 in group:
                    click.echo(f"  {name}  (overlap {o1} at height span, "
                               f"{o2} two wider)")
            return
    if fmt == "json":
        _emit_json({"table": which, "rows": dicts})
        return
    _emit_table(fmt, headers, rows)


if __name__ == "__main__":
    main()
