"""The package's public names, its modules' imports and where its
per-pattern results are kept."""

import ast
import functools
import gc
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
import weakref
from collections import Counter
from pathlib import Path

import pytest

import sigbounds
from sigbounds import bounds, characteristics, oracle
from sigbounds.oracle import GF_SUPPORTED
from sigbounds.series import (Aggregator, Domain, Feature, PatternSpec,
                              TimeSeries, evaluate)


class TestPublicNames:
    def test_every_name_resolves_and_none_is_a_module(self):
        assert len(set(sigbounds.__all__)) == len(sigbounds.__all__)
        for name in sigbounds.__all__:
            value = getattr(sigbounds, name)
            assert not isinstance(value, types.ModuleType), name

    def test_renamed_import_and_version_are_listed(self):
        assert "compile_regex" in sigbounds.__all__
        assert "compile" not in sigbounds.__all__
        assert "__version__" in sigbounds.__all__


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports, apart from ``__future__``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(a.asname or a.name for a in node.names)
    return out


class TestImports:
    def test_importing_the_cli_compiles_no_automaton(self):
        # module-level compiles would land on every command's start-up
        src = os.path.dirname(os.path.dirname(sigbounds.__file__))
        code = ("import gc, sigbounds.cli\n"
                "from sigbounds.sigregex import Automaton\n"
                "print(sum(isinstance(o, Automaton)"
                " for o in gc.get_objects()))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        got = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert got.returncode == 0, got.stderr
        assert got.stdout.strip() == "0"

    def test_every_imported_name_is_used(self):
        package = Path(sigbounds.__file__).parent
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text("utf-8"))
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            unused = _imported_names(tree) - used
            if path.name == "__init__.py":
                # the package re-exports what it imports
                unused -= set(sigbounds.__all__)
            assert not unused, (path.name, sorted(unused))


def _named(tree: ast.AST) -> Counter:
    """How often each name is read, as a variable, an attribute or an
    imported name."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


class TestPrivateNames:
    def test_every_private_definition_is_used(self):
        package = Path(sigbounds.__file__).parent
        trees = {p.name: ast.parse(p.read_text("utf-8"))
                 for p in sorted(package.glob("*.py"))}
        named = sum(map(_named, trees.values()), Counter())
        unused = []
        for module, tree in trees.items():
            for node in ast.walk(tree):
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name.startswith("_")
                        and not node.name.startswith("__")
                        and named[node.name] == _named(node)[node.name]):
                    unused.append(f"{module}:{node.name}")
        assert not unused


def test_every_public_definition_is_exported_or_used():
    # a public definition nothing reads is dead code or a test helper
    package = Path(sigbounds.__file__).parent
    trees = {p.name: ast.parse(p.read_text("utf-8"))
             for p in sorted(package.glob("*.py"))}
    named = sum(map(_named, trees.values()), Counter())
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in sigbounds.__all__
        and not (node.name.startswith("cmd_") and node.decorator_list)
        and named[node.name] == _named(node)[node.name]
    ]
    assert not unused


# Automaton.intersect has no reader under src/, but perfbench's tracer
# wraps it by name and reports its calls, so it stays until those metrics
# are retired
_METHODS_READ_OUTSIDE_SRC = {("Automaton", "intersect")}


def test_every_public_method_is_read_in_the_package():
    # a method only the tests call is a test helper kept in the package
    package = Path(sigbounds.__file__).parent
    trees = {p.name: ast.parse(p.read_text("utf-8"))
             for p in sorted(package.glob("*.py"))}
    named = sum(map(_named, trees.values()), Counter())
    unused = {
        (cls.name, node.name)
        for tree in trees.values() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and named[node.name] == _named(node)[node.name]
    }
    assert unused == _METHODS_READ_OUTSIDE_SRC


class TestPatternMemo:
    def test_no_module_level_cache_is_keyed_by_a_spec(self):
        # per-pattern results live in the spec's memo, which dies with it;
        # a module-level cache keyed by spec would keep every spec alive
        keyed = []
        for info in pkgutil.iter_modules(sigbounds.__path__):
            if info.name.startswith("__"):
                continue
            module = importlib.import_module(f"sigbounds.{info.name}")
            for name, value in vars(module).items():
                if isinstance(value, functools._lru_cache_wrapper):
                    first = next(iter(
                        inspect.signature(value).parameters.values()), None)
                    if first is not None and first.annotation in (
                            "PatternSpec", PatternSpec):
                        keyed.append(f"{info.name}.{name}")
        assert not keyed

    @pytest.mark.parametrize("expr", ["<+=*>+", "<=?>|=>*"])
    def test_an_analysed_spec_is_freed(self, expr):
        spec = PatternSpec(expr, expr)
        for span in (1, 2, 3):
            d = Domain(0, span)
            characteristics.report(spec, d, 8)
            for g, f, side in GF_SUPPORTED:
                try:
                    bounds.bound(g, f, side, spec, 8, d)
                except bounds.BoundError:
                    pass
        evaluate(spec, Feature.MAX, Aggregator.SUM,
                 TimeSeries((0, 1, 2, 2, 1, 0, 1) * 40))
        assert spec._memo
        ref = weakref.ref(spec)
        del spec
        gc.collect()
        assert ref() is None


class _Reads(ast.NodeVisitor):
    """The innermost function around each read of one of ``names``, as a
    variable or an attribute, annotations and decorators aside; None for a
    read outside every function."""

    def __init__(self, names: set[str]):
        self.names, self.where, self.found = names, None, set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self.where = self.where, node.name
        for stmt in node.body:
            self.visit(stmt)
        self.where = outer

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.names and isinstance(node.ctx, ast.Load):
            self.found.add((self.where, node.id))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in self.names and isinstance(node.ctx, ast.Load):
            self.found.add((self.where, node.attr))
        self.generic_visit(node)


def test_one_function_reads_the_scan_row_table():
    # the table has one scan loop; a second kernel over it would have to
    # keep the same rows, fallback and tie rules in step with the first.
    # The table is built in the pattern memo, by the module-level lambda
    # of _scan_rows, and the automaton holds nothing of it
    package = Path(sigbounds.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        reads = _Reads({"_scan_rows", "_RowTable"})
        reads.visit(ast.parse(path.read_text("utf-8")))
        found |= {(path.stem, where, name) for where, name in reads.found}
    assert found == {("series", "_maximal_spans", "_scan_rows"),
                     ("series", None, "_RowTable")}
    assert "_scan_rows" not in sigbounds.sigregex.Automaton.__slots__


def test_one_function_reads_the_walk_row_table():
    # the signature walk has one row stepper; a second one would have to
    # keep the table's rows and their tie rules in step with the first
    package = Path(sigbounds.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        reads = _Reads({"_row_moves"})
        reads.visit(ast.parse(path.read_text("utf-8")))
        found |= {(path.stem, where, name) for where, name in reads.found}
    assert found == {("series", "_scan_stepper", "_row_moves")}


def test_the_sweep_alone_walks_the_signature_levels():
    # the sweep opens one walk per (pattern, domain) and hands each cell
    # its levels, so how a cell's signatures are enumerated is decided in
    # one place: the fold and the descent only read what they are given
    package = Path(sigbounds.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        reads = _Reads({"_signature_levels"})
        reads.visit(ast.parse(path.read_text("utf-8")))
        found |= {(path.stem, where) for where, _ in reads.found}
    assert found == {("oracle", "sharpness_report"),
                     ("series", "_carries_maximal")}


def test_the_oracle_reads_widths_through_the_feature_rule():
    # a width is the trimmed length k + 1 - a - b; the oracle reads it from
    # series._features, so no trimming constant of a pattern is read there
    # and the sweep and brute_extrema refuse an empty occurrence alike
    path = Path(sigbounds.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text("utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in ("a", "b")]


def test_only_the_series_module_steps_a_walk_key():
    # the walk key (run counter, scan row, chain) is built, stepped and
    # read in series alone: the oracle's fold and the property checks
    # take what series' readers of the key give them
    package = Path(sigbounds.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        reads = _Reads({"_scan_stepper"})
        reads.visit(ast.parse(path.read_text("utf-8")))
        if reads.found:
            found.add(path.stem)
    assert found == {"series"}


def test_height_questions_walk_keys_not_products():
    # height, range and its templates read the (state, run counter) keys,
    # so no function builds an automaton product or a height-bounded
    # automaton, and one function steps the key levels: a second stepper
    # would have to keep their least-height rule in step with the first
    package = Path(sigbounds.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        reads = _Reads({"intersect", "bounded_height_automaton",
                        "_counter_step"})
        reads.visit(ast.parse(path.read_text("utf-8")))
        found |= {(name, (path.stem, where)) for where, name in reads.found}
    readers = {name: {at for read, at in found if read == name}
               for name in ("intersect", "bounded_height_automaton",
                            "_counter_step")}
    assert not readers["intersect"]
    # the key walks carry the run counter where H_span's levels were
    assert not readers["bounded_height_automaton"]
    assert readers["_counter_step"] == {("characteristics", "_key_levels")}


def test_only_the_automaton_reads_its_length_walk():
    # length questions outside sigregex go through its public answers or
    # the key walk, so the length walk's successor table stays private
    package = Path(sigbounds.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        reads = _Reads({"_length_sets"})
        reads.visit(ast.parse(path.read_text("utf-8")))
        if reads.found:
            found.add(path.stem)
    assert found == {"sigregex"}


def test_no_bound_rule_or_property_check_takes_a_cap():
    # bounds read the default-cap overlap and variation, the ones the
    # oracle certifies; a cap on one rule or check would let it claim a
    # sharp bound from a search that nothing certifies
    package = Path(sigbounds.__file__).parent
    found = set()
    for stem in ("bounds", "properties"):
        tree = ast.parse((package / f"{stem}.py").read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)}
                if "cap" in names:
                    found.add((stem, getattr(node, "name", "<lambda>")))
    assert not found


def test_per_row_records_skip_frozen_setattr():
    # a frozen dataclass sets each field through object.__setattr__, a
    # fixed cost on every row of the sweep: a row is built as one tuple,
    # and each bound result sets its fields into slots, not a dict
    assert issubclass(oracle.SweepRow, tuple)
    assert "__slots__" in vars(bounds.BoundResult)


def test_one_boundary_maps_errors_to_exit_codes():
    # the exit codes are one policy: one wrapper around every command
    # turns an error into its code, and only verify's verdict exits
    # otherwise, so no command body catches an error itself
    tree = ast.parse((Path(sigbounds.__file__).parent / "cli.py")
                     .read_text("utf-8"))
    reads = _Reads({"_fail", "exit"})
    reads.visit(tree)
    assert reads.found == {("bounded", "_fail"), ("_fail", "exit"),
                           ("cmd_verify", "exit")}
    assert not [node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_")
                and any(isinstance(n, ast.Try) for n in ast.walk(node))]
