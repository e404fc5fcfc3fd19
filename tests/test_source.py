"""Rules the package source keeps, checked on its syntax trees, and the
names and calls the frozen benchmark needs from it."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SHIPPED, load_fan, product_fan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qdm"
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name):
    """perfbench/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariants are explicit raises: python -O strips every assert
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s has assert statements on lines %s" % (path.name, lines)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every CLI process pays its imports; neither module is needed
    code = ("import sys, qdm.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", [["cohomology", "fans/p4.json"],
                                  ["loop-model", "fans/dp3.json"]],
                         ids=["cohomology-p4", "loop-model-dp3"])
def test_cli_run_on_an_integer_fan_leaves_out_fractions_and_decimal(argv):
    # an integer fan is parsed and printed from ints, so the process need
    # not load fractions, nor the decimal module fractions imports
    code = ("import io, sys, contextlib, qdm.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = qdm.cli.main(%r)\n"
            "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)))" % (argv,))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "0 []"


def _names(tree):
    """The names a syntax tree reads, looks up as attributes or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_module_function_has_a_caller():
    # a function only the tests or the package exports reach is code the
    # program does not need; the README's examples and the benchmark's
    # traced entry points count as callers
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    used = {name for tree in trees.values() for name in _names(tree)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M):
        used.update(_names(ast.parse(block)))
    layers = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    functions = next(ast.literal_eval(node.value) for node in layers.body
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets))
    used.update(name for names in functions.values() for name in names)
    unused = ["%s.%s" % (module, node.name) for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name not in used]
    assert not unused, "functions with no caller: %s" % unused


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_read(path):
    # __init__.py imports to re-export; every other module reads what it
    # imports, apart from the __future__ switch
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(imported - read)
    assert not unused, "%s imports %s without reading them" % (path.name, unused)


_MEMO_CALLS = {"dict", "list", "set", "WeakKeyDictionary", "WeakValueDictionary"}
_MEMO_DECORATORS = {"cache", "lru_cache"}


def _callee(node):
    """The name a call or decorator expression invokes, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def module_memos(tree):
    """Lines holding a process-wide memo: a module-level name bound to an
    empty dict, list or set or to a weak dictionary, or a function anywhere
    under a functools cache decorator."""
    lines = []
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if value is None:
            continue
        empty = isinstance(value, (ast.Dict, ast.List, ast.Set)) and not (
            getattr(value, "keys", None) or getattr(value, "elts", None))
        call = isinstance(value, ast.Call) and _callee(value) in _MEMO_CALLS and (
            _callee(value).startswith("Weak") or not (value.args or value.keywords))
        if empty or call:
            lines.append(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [d.lineno for d in node.decorator_list
                      if _callee(d) in _MEMO_DECORATORS]
    return sorted(lines)


@pytest.mark.parametrize("source, lines", [
    ("_MEMO = {}", [1]),
    ("_SEEN: set = set()", [1]),
    ("_ROWS = []\nclass C:\n    cache = {}", [1]),
    ("import weakref\n_RINGS = weakref.WeakKeyDictionary()", [2]),
    ("from weakref import WeakValueDictionary\n_R = WeakValueDictionary()", [2]),
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x", [2]),
    ("from functools import cache\nclass C:\n    @cache\n    def f(self):\n        pass",
     [3]),
    ("_COMMANDS = {'a': 1}\n__all__ = ['a']\n_PAIRS = dict(a=1)", []),
    ("def f():\n    memo = {}\n    return memo", []),
])
def test_module_memo_detector(source, lines):
    assert module_memos(ast.parse(source)) == lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_memo(path):
    # state belongs to the object that owns it (the ring, the series); a
    # module-level memo is shared by every caller in the process
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = module_memos(tree)
    assert not lines, "%s has module-level memos on lines %s" % (path.name, lines)


def test_the_benchmark_still_resolves(monkeypatch):
    # the frozen benchmark looks its traced entry points up by name
    # (layers.install) and times parse_fan, charge_matrix, mori_generators
    # and build_ring as its set-up (run.setup_once); a refactor that renames
    # one or changes its arguments must fail here, not in a benchmark run
    layers = _perfbench_module("layers")
    for layer, names in layers.FUNCTIONS.items():
        module = importlib.import_module("qdm." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), "qdm.%s.%s" % (layer, name)
    for layer, (cls_name, names) in layers.METHODS.items():
        cls = getattr(importlib.import_module("qdm." + layer), cls_name)
        for name in names:
            assert callable(cls.__dict__.get(name)), "qdm.%s.%s.%s" % (layer, cls_name, name)
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its dir
    run = _perfbench_module("run")
    # p2 derives its nef basis, dp3 supplies one
    texts = [(ROOT / "fans" / (name + ".json")).read_text() for name in ("p2", "dp3")]
    assert run.setup_once(texts) > 0


def _owners(tree, match):
    """The name of the innermost function around each node that matches,
    '' at module level."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)
    visit(tree, "")
    return found


def _adds_exponents(node):
    """map(add, a, b), or a comprehension x + y for x, y in zip(a, b)."""
    if isinstance(node, ast.Call) and _callee(node) == "map":
        return bool(node.args) and _callee(node.args[0]) == "add"
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        elt, gen = node.elt, node.generators[0]
        return (isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Add)
                and isinstance(gen.iter, ast.Call) and _callee(gen.iter) == "zip")
    return False


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("source, owners", [
    ("def f(a, b):\n    return tuple(map(add, a, b))", ["f"]),
    ("def g(a, b):\n    return tuple(x + y for x, y in zip(a, b))", ["g"]),
    ("s = [x + y for x, y in zip(a, b)]", [""]),
    ("def h(a, b):\n    return sum(x * y for x, y in zip(a, b)), list(map(abs, a))", []),
])
def test_exponent_addition_detector(source, owners):
    assert _owners(ast.parse(source), _adds_exponents) == owners


def test_exponent_tuples_are_added_by_one_helper():
    owners = {module: _owners(tree, _adds_exponents) for module, tree in _trees().items()}
    assert owners.pop("cohomology") == ["add_exponents"]
    assert not any(owners.values()), owners


def test_package_reads_no_fraction_view():
    # coeffs rebuilds Fractions from the integer numerators and serves only
    # the tests, the README and the oracles; an operator has no such view
    views = {"coeffs", "terms", "coefficient"}
    reads = {module: _owners(tree, lambda node: isinstance(node, ast.Attribute)
                             and node.attr in views)
             for module, tree in _trees().items()}
    assert not any(reads.values()), reads


def _class_body(module, name):
    """The statements of a class defined at the top of a package module."""
    return next(node for node in _trees()[module].body
                if isinstance(node, ast.ClassDef) and node.name == name).body


def test_constructors_clear_no_denominators():
    # a rational class or operator is built with combination or scale: the
    # constructors take int numerators over den and only normalize them
    for module, name in (("cohomology", "CohomClass"), ("dmodule", "DiffOp")):
        init = next(node for node in _class_body(module, name)
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__")
        calls = {_callee(node) for node in ast.walk(init) if isinstance(node, ast.Call)}
        assert not calls & {"Fraction", "lcm"}, (name, calls)


def test_an_operator_is_read_through_num_den_and_walk():
    defined = {node.name for node in _class_body("dmodule", "DiffOp")
               if isinstance(node, ast.FunctionDef)}
    assert "walk" in defined
    assert not defined & {"terms", "coefficient", "support_triples"}, defined


def _function(module, name):
    """The definition of a top-level function of a package module."""
    return next(node for node in _trees()[module].body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_one_rule_puts_values_in_lowest_terms():
    # linalg.lowest normalizes classes, operators, nullspace vectors and
    # solutions; the constructors and _solve read no gcd of their own
    trees = _trees()
    for module in ("cohomology", "dmodule"):
        assert "gcd" not in set(_names(trees[module])), module
    assert "gcd" not in set(_names(_function("linalg", "_solve")))
    defined = {node.name for node in trees["linalg"].body if isinstance(node, ast.FunctionDef)}
    assert "lowest" in defined and "_lowest" not in defined
    callers = {module: _owners(tree, lambda node: isinstance(node, ast.Call)
                               and _callee(node) == "lowest")
               for module, tree in trees.items()}
    assert {m: sorted(owners) for m, owners in callers.items() if owners} == {
        "cohomology": ["__init__"], "dmodule": ["__init__"], "linalg": ["_solve", "nullspace"]}


def test_the_elimination_files_each_row_under_its_leading_column():
    # a cleared row goes to the bucket of min(row), with no loop probing
    # the columns after c
    loops = [node.lineno for node in ast.walk(_function("linalg", "_reduce"))
             if isinstance(node, ast.While)]
    assert not loops, loops


def _over_width(node):
    """A range(...) call whose arguments read the name width."""
    return (isinstance(node, ast.Call) and _callee(node) == "range"
            and any(isinstance(n, ast.Name) and n.id == "width"
                    for arg in node.args for n in ast.walk(arg)))


def _toric_calls(start):
    """The names called by the toric function start and by every toric
    function it reaches."""
    tree = _trees()["toric"]
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo, calls = set(), [start], set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call):
                calls.add(_callee(node))
                if _callee(node) in defs and _callee(node) not in reached:
                    todo.append(_callee(node))
    return calls


def test_the_nef_rays_come_from_no_subset_enumeration():
    # _dual_cone_rays adds one wall class at a time (double description);
    # neither it nor a toric function it reaches eliminates once per subset
    # of classes, nor checks the span by a separate rank
    calls = _toric_calls("_dual_cone_rays")
    assert not calls & {"nullspace", "_reduce", "combinations", "_rank"}, calls
    assert "_rank" not in _toric_calls("make_fan")


def test_the_mori_generators_come_from_the_normals_alone():
    # mori_generators runs the double description on the facet normals:
    # it maps no wall class and tests no rank by elimination
    calls = _toric_calls("mori_generators")
    assert "_dual_cone_rays" in calls
    banned = {"_reduce", "_rank", "nullspace", "wall_relations", "primitive_vector"}
    assert not calls & banned, calls & banned


def test_only_mori_generators_judges_a_nef_basis_against_the_curves():
    # charge_matrix checks that a supplied basis is a lattice basis; the
    # curves, through the Mori cone's generators, judge whether it is nef
    assert "wall_relations" not in _toric_calls("charge_matrix")


def test_nullspace_vectors_stay_sparse():
    # nullspace returns each vector as {column: int}, and find_annihilators
    # lists its columns in elimination order and reads each vector off that
    # map: no dense list over range(width) and no reversal of one
    reversals = [node.lineno for node in ast.walk(_function("dmodule", "find_annihilators"))
                 if isinstance(node, ast.Call) and _callee(node) in ("reverse", "reversed")]
    assert not reversals, reversals
    dense = [node.lineno for node in ast.walk(_function("linalg", "nullspace"))
             if isinstance(node, ast.ListComp)
             and any(_over_width(g.iter) for g in node.generators)
             or isinstance(node, ast.Call) and _callee(node) == "list"
             and any(_over_width(n) for n in ast.walk(node))]
    assert not dense, dense


def _writes_ok(node):
    """A dict display with an "ok" key, or a store to x["ok"]."""
    if isinstance(node, ast.Dict):
        return any(isinstance(k, ast.Constant) and k.value == "ok" for k in node.keys)
    return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Constant) and node.slice.value == "ok")


def test_only_main_writes_the_ok_key():
    # each handler returns (report, ok), and main writes ok once, last
    assert _owners(_trees()["cli"], _writes_ok) == ["main"]


def test_an_operator_is_one_flat_map():
    # DiffOp.num is {(e, t): int}: composition walks pairs of terms and needs
    # neither a polynomial product nor a shift helper of its own
    trees = _trees()
    readers = sorted(m for m, tree in trees.items() if "poly_mul" in set(_names(tree)))
    assert readers == ["cohomology"]
    functions = {node.name for node in ast.walk(trees["dmodule"])
                 if isinstance(node, ast.FunctionDef)}
    assert "_shift_poly" not in functions


def test_serialize_builds_fractions_in_one_formatter():
    # frac_str puts every printed rational in lowest terms from its ints
    tree = _trees()["serialize"]
    assert not _imports(tree, "fractions")
    owners = _owners(tree, lambda node: isinstance(node, ast.Call)
                     and _callee(node) in ("Fraction", "gcd"))
    assert owners == ["frac_str"]


def _imports(tree, name):
    """Does the syntax tree import the named module?"""
    return any(isinstance(node, ast.ImportFrom) and node.module == name
               or isinstance(node, ast.Import) and any(a.name == name for a in node.names)
               for node in ast.walk(tree))


def test_only_the_parser_and_the_printer_build_fractions():
    # between the fan parser and the printer a rational is int numerators
    # over one den > 0: toric.parse_frac alone builds a Fraction, for a fan
    # file's non-integral 'p/q', and imports fractions only to build it;
    # serialize prints every rational from ints
    trees = _trees()
    assert sorted(m for m, tree in trees.items() if _imports(tree, "fractions")) == [
        "toric"]
    assert _owners(trees["toric"], lambda node: isinstance(node, ast.ImportFrom)
                   and node.module == "fractions") == ["parse_frac"]
    builds = {module: _owners(tree, lambda node: isinstance(node, ast.Call)
                              and _callee(node) == "Fraction")
              for module, tree in trees.items()}
    assert {m: owners for m, owners in builds.items() if owners} == {
        "toric": ["parse_frac"]}


def test_the_poincare_pairing_has_one_owner():
    # CohomRing.pairing reads each block off the reduction table; the dual
    # basis and the cohomology report read the blocks, the series components
    # read coordinates of products instead, and no other module integrates
    # a product or reads _pair
    builds = {module: _owners(tree, lambda node: isinstance(node, ast.Call)
                              and _callee(node) in ("integrate", "_pair"))
              for module, tree in _trees().items() if module != "cohomology"}
    assert not any(builds.values()), builds
    readers = _owners(_trees()["cli"], lambda node: isinstance(node, ast.Call)
                      and _callee(node) == "pairing")
    assert readers, "cli does not read CohomRing.pairing"
    series_readers = _owners(_trees()["ifunction"], lambda node: isinstance(node, ast.Call)
                             and _callee(node) in ("pairing", "dual_basis"))
    assert not series_readers, series_readers


def test_one_window_rule_reads_the_truncation():
    # where D.F is exact follows from the series truncation alone, and
    # _window_cap is where that is stated; no other code reads a bound
    reads = {module: _owners(tree, lambda node: isinstance(node, ast.Attribute)
                             and node.attr == "bound" and isinstance(node.ctx, ast.Load))
             for module, tree in _trees().items()}
    assert set(reads.pop("dmodule")) == {"_window_cap"}
    assert not any(reads.values()), reads


def test_only_build_f_lists_the_series_window():
    # ifunction, operators and loop-model all take their window from
    # build_f, so it is listed and priced against MAX_RATIO_BITS in one place
    callers = {module: _owners(tree, lambda node: isinstance(node, ast.Call)
                               and _callee(node) == "enumerate_degrees")
               for module, tree in _trees().items()}
    assert {m: owners for m, owners in callers.items() if owners} == {"ifunction": ["build_f"]}


def _sums_by_hand(node):
    """An lcm call, a store x[k] = x.get(k, 0) + ... or a dict comprehension:
    a common denominator, a sum or a scaling built in place."""
    if isinstance(node, ast.Call):
        return _callee(node) == "lcm"
    return isinstance(node, ast.DictComp) or (
        isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.Add) and isinstance(node.value.left, ast.Call)
        and _callee(node.value.left) == "get")


def test_classes_and_operators_add_and_scale_through_combine():
    # linalg.combine is the one common-denominator sum: a class or an
    # operator is added, subtracted, negated and scaled through it, and
    # CohomRing.combination feeds it its terms
    methods = {"%s.%s" % (name, node.name): node
               for module, name in (("cohomology", "CohomClass"), ("cohomology", "CohomRing"),
                                    ("dmodule", "DiffOp"))
               for node in _class_body(module, name) if isinstance(node, ast.FunctionDef)}
    guarded = [key for key in methods if not key.startswith("CohomRing.")
               and key != "DiffOp.__mul__"]  # composition multiplies terms
    by_hand = {key: [node.lineno for node in ast.walk(methods[key]) if _sums_by_hand(node)]
               for key in guarded + ["CohomRing.combination"]}
    assert not any(by_hand.values()), by_hand
    callers = sorted(key for key, fn in methods.items()
                     if any(isinstance(node, ast.Call) and _callee(node) == "combine"
                            for node in ast.walk(fn)))
    assert callers == ["CohomClass.scale", "CohomRing.combination", "DiffOp.__add__",
                       "DiffOp.scale"]


def test_linalg_reads_solutions_off_one_solve():
    # solve_columns and invert both go through _solve's reduced [a | b]
    owners = _owners(_trees()["linalg"], lambda node: isinstance(node, ast.Call)
                     and _callee(node) == "_reduce")
    assert sorted(owners) == ["_solve", "nullspace", "rref"]


def test_a_series_holds_one_memo():
    # the theta-images are the only memo; the windows are listed per call
    slots = next(node.value for node in _class_body("ifunction", "Series")
                 if isinstance(node, ast.Assign) and node.targets[0].id == "__slots__")
    data = {"ring", "bound", "degrees", "coefficients", "weight"}
    assert set(ast.literal_eval(slots)) - data == {"images"}


def test_make_fan_runs_one_hermite_form(monkeypatch):
    # make_fan inverts its first maximal cone and reaches the others across
    # walls, and the ring reads the fan's primitive collections: neither
    # per-cone Hermite forms nor the 2^n subset walk may come back
    from qdm import cohomology, linalg
    calls = []
    hermite = linalg.hermite_form

    def counting(rows):
        calls.append(len(rows))
        return hermite(rows)

    monkeypatch.setattr(linalg, "hermite_form", counting)
    for name in SHIPPED:
        calls.clear()
        fan = load_fan(name)
        assert calls == [fan.dim], name
    calls.clear()
    product_fan(*["p1"] * 6)
    assert calls == [6]
    assert not hasattr(cohomology.CohomRing, "_minimal_nonfaces")


def test_a_cohomology_run_makes_four_hermite_forms(monkeypatch):
    # the first maximal cone, the wall relations, the nef basis and the
    # charge matrix's outside block: no integer kernel of the rays adds two
    from qdm import linalg
    from qdm.cli import main
    calls = []
    hermite = linalg.hermite_form

    def counting(rows):
        calls.append(len(rows))
        return hermite(rows)

    monkeypatch.setattr(linalg, "hermite_form", counting)
    for name in ("p2", "dp3", "p1x3"):
        calls.clear()
        assert main(["cohomology", str(ROOT / "fans" / (name + ".json"))]) == 0
        assert len(calls) == 4, (name, calls)


def test_no_function_computes_an_integer_kernel():
    # charge_matrix reads the relation basis off the wall relations' Hermite
    # form; integer_kernel serves the tests and the frozen benchmark alone
    callers = {module: _owners(tree, lambda node: isinstance(node, ast.Call)
                               and _callee(node) == "integer_kernel")
               for module, tree in _trees().items()}
    assert not any(callers.values()), callers


def _calls(node, name):
    """The calls under node to a function or method of that name."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call) and _callee(n) == name]


def test_the_annihilator_matrix_has_one_scale():
    # one lcm of every image denominator scales the whole matrix, outside
    # the column loop, so each nullspace vector is an operator as it stands:
    # no per-column scale list is kept, and none is undone on read-back
    fn = _function("dmodule", "find_annihilators")
    outside = [call for stmt in fn.body if not isinstance(stmt, (ast.For, ast.While))
               for call in _calls(stmt, "lcm")]
    assert len(_calls(fn, "lcm")) == len(outside) == 1
    lists = [target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.List) and not node.value.elts
             for target in node.targets]
    assert lists == ["found"], lists
    dens = [call.args[-1] for call in _calls(fn, "DiffOp")]
    assert dens and all(isinstance(den, ast.Name) for den in dens), dens


def test_a_basis_product_is_one_table_lookup():
    # the reduction table is over the ring's one denominator and holds every
    # free monomial up to the top degree, so _pair only reads it, reads a
    # missing product as zero, and memoizes
    pair = next(node for node in _class_body("cohomology", "CohomRing")
                if isinstance(node, ast.FunctionDef) and node.name == "_pair")
    arithmetic = [node.lineno for node in ast.walk(pair)
                  if isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp))]
    assert not arithmetic, arithmetic
    attributes = {node.attr for node in ast.walk(pair) if isinstance(node, ast.Attribute)}
    assert attributes == {"_pairs", "_table", "get"}, attributes
    calls = {_callee(node) for node in ast.walk(pair) if isinstance(node, ast.Call)}
    assert calls == {"get", "add_exponents"}, calls


def test_make_fan_walks_the_walls_once():
    # a malformed cone's error reads determinants, not a second wall walk
    assert len(_calls(_function("toric", "make_fan"), "_cone_inverses")) == 1


def test_the_loop_model_checks_its_modes_once():
    # critical_component is the one check; euler_ratio_n calls it
    defined = {node.name for node in _trees()["loop_model"].body
               if isinstance(node, ast.FunctionDef)}
    assert "_require_modes" not in defined
    assert _calls(_function("loop_model", "euler_ratio_n"), "critical_component")


def test_pairing_blocks_are_not_memoized():
    # each call reads its block off the _pair rows; the ring keeps no block memo
    body = _class_body("cohomology", "CohomRing")
    bound = {node.attr for stmt in body for node in ast.walk(stmt)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert "_pairing_cache" not in bound
    pairing = next(node for node in body
                   if isinstance(node, ast.FunctionDef) and node.name == "pairing")
    reads = {node.attr for node in ast.walk(pairing) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert reads == {"_point", "basis_by_degree", "top", "_pair", "_den"}, reads
    stores = [node.lineno for node in ast.walk(pairing)
              if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)]
    assert not stores, stores


def test_a_ratio_memo_hit_computes_no_pairings():
    # the memo is keyed by the degree itself, so pairings are computed only
    # in the branch taken when the degree is not yet in ring.ratios
    fn = _function("ifunction", "euler_ratio")
    misses = [node for node in ast.walk(fn) if isinstance(node, ast.If)
              and isinstance(node.test, ast.Compare)
              and [type(op) for op in node.test.ops] == [ast.NotIn]]
    inside = [call for branch in misses for stmt in branch.body
              for call in _calls(stmt, "pairings")]
    assert inside and inside == _calls(fn, "pairings"), ast.unparse(fn)


def test_each_series_degree_has_its_pairings_computed_once():
    # build_f lists its window as (d, a(d)) pairs in one pairings pass, and
    # the budget and the shared step read that list; the ratio check takes
    # a(d) from its caller, and check_stabilization computes a(d) once and
    # reads N(d), the weight intervals and the check off it
    assert len(_calls(_function("ifunction", "build_f"), "pairings")) == 1
    assert not _calls(_function("ifunction", "build_f"), "euler_ratio")
    assert not _calls(_function("ifunction", "_step_ratio"), "pairings")
    for name in ("build_f", "euler_ratio"):
        assert _calls(_function("ifunction", name), "_step_ratio"), name
    assert not _calls(_function("ifunction", "check_ratio"), "pairings")
    stabilization = _function("loop_model", "check_stabilization")
    assert len(_calls(stabilization, "pairings")) == 1
    assert not _calls(stabilization, "critical_component")
    for name in ("check_stabilization", "critical_component"):
        assert _calls(_function("loop_model", name), "_critical_data"), name
