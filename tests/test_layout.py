"""Module layout: an ahilb module uses only the public names of another,
imports only at module level, reads every name it imports, every
parameter it declares and every local it stores, and every span the
benchmark traces names a module-level function.

One package function, `lattice.lattice_context`, calls
`lattice.smith_columns`: every other lattice and character fact is read
off the context it builds, one Smith form per group.

Every module-level function and every non-dunder method has a reader:
its name is referenced somewhere in the package outside its own body,
or it is listed in `ahilb.__all__`, or the benchmark traces it (a
function named in `SPANS` of perfbench/tracing.py). A method that
overrides a base class method counts as read.
The package's result records are the 18 `typing.NamedTuple` classes
named in `RECORDS`, and no module imports `dataclasses`, so a fresh
`import ahilb.cli` loads neither `dataclasses` nor `inspect`. A record
defines no tuple dunder of its own but `CyclicWord.__len__`. Every record
field has a reader of its own class: running each command through
`cli.main` on groups of all four champion kinds, package code reads the
field by name off an instance of that class (tuple equality, hashing,
iteration, the generated `__repr__` and `_replace` do not count). Only
the README-documented `SurfaceClass.neighbors` and `SurfaceClass.c` are
read by no package code. Code and data that only tests reach do not
belong in the package.

Every call `name(a, b, ...)` that README.md writes in backticks, where
name is a package function, class or method, passes as many arguments
as that callable accepts."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import ahilb
import ahilb.verify
from ahilb import cli

PACKAGE = Path(ahilb.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"


def _private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names that path imports from other ahilb
    modules, at any nesting level."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            source = node.module
        elif node.level == 0 and node.module.startswith("ahilb."):
            source = node.module[len("ahilb."):]
        else:
            continue
        if source == path.stem:
            continue
        out += [f"{path.stem} <- {source}.{alias.name}"
                for alias in node.names if alias.name.startswith("_")]
    return out


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _private_imports(path)
    assert found == []


def _function_level_imports(path: Path) -> list[str]:
    """Import statements inside a function body of path, at any depth."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        out += [f"{path.stem}.{node.name}:{inner.lineno}"
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return out


def test_no_function_level_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _function_level_imports(path)
    assert found == []


def _functions(path: Path) -> list[tuple[str, ast.FunctionDef]]:
    """path's module-level functions and methods, each with its qualified
    name."""
    funcs = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            funcs += [(f"{path.stem}.{node.name}.{f.name}", f)
                      for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs.append((f"{path.stem}.{node.name}", node))
    return funcs


def _names(fn: ast.FunctionDef, ctx: type) -> set[str]:
    """Bare names that fn's body, nested scopes included, uses in ctx."""
    return {n.id for stmt in fn.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def _unused_parameters(path: Path) -> list[str]:
    """Parameters of path's module-level functions and methods that their
    bodies never read."""
    out = []
    for name, fn in _functions(path):
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = _names(fn, ast.Load)
        out += [f"{name}({p.arg})" for p in params if p.arg not in read]
    return out


def test_no_unused_parameters():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _unused_parameters(path)
    assert found == []


def _unused_locals(path: Path) -> list[str]:
    """Names other than _ that path's module-level functions and methods
    store and never read."""
    out = []
    for name, fn in _functions(path):
        unread = _names(fn, ast.Store) - _names(fn, ast.Load) - {"_"}
        out += [f"{name}: {local}" for local in sorted(unread)]
    return out


def test_no_unused_locals():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _unused_locals(path)
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    """Names that path's module-level imports bind and that the module
    never reads; a name listed in __all__ counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return [f"{path.stem}.{name}" for name in bound if name not in read]


def test_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _unused_imports(path)
    assert found == []


def _callers(name: str) -> list[str]:
    """The package's module-level functions and methods whose bodies,
    nested scopes included, call name, as a bare name or an attribute."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, fn in _functions(path):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if called == name:
                    out.append(qual)
    return out


def test_one_smith_form_per_group():
    assert _callers("smith_columns") == ["lattice.lattice_context"]


def _traced_spans() -> dict[str, tuple[str, str]]:
    """The benchmark's SPANS: span name -> (module, function)."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS


def test_traced_spans_name_module_level_functions():
    # The benchmark's --trace 1 wraps these by module and name; a renamed
    # or nested function would leave its span silently empty.
    missing = []
    for span, (module, name) in _traced_spans().items():
        mod = importlib.import_module(f"ahilb.{module}")
        fn = vars(mod).get(name)
        if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and fn.__qualname__ == name):
            missing.append(span)
    assert missing == []


def _references(node: ast.AST) -> Counter:
    """Names read under node, as bare names or as attributes."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load))


def _readme_spans() -> list[str]:
    """Inline backtick spans of README.md, fenced blocks left out."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"),
                  flags=re.S)
    return re.findall(r"`([^`]+)`", text)


def _overrides(module: str, cls: str, name: str) -> bool:
    klass = getattr(importlib.import_module(f"ahilb.{module}"), cls)
    return any(name in vars(base) for base in klass.__mro__[1:])


def _package_names() -> tuple[dict[str, ast.Module], Counter, set[str]]:
    """The package's module trees, the names read in them, and the names
    listed in `ahilb.__all__` or traced by the benchmark."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    traced = {name for _, name in _traced_spans().values()}
    return trees, total, set(ahilb.__all__) | traced


def _unread_functions() -> list[str]:
    trees, total, known = _package_names()
    out = []
    for module, tree in trees.items():
        defs = [("", None, node) for node in tree.body]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.", node.name, f) for f in node.body]
        for prefix, cls, fn in defs:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = fn.name
            if name.startswith("__") and name.endswith("__") or name in known:
                continue
            if total[name] > _references(fn)[name]:
                continue
            if cls is not None and _overrides(module, cls, name):
                continue
            out.append(f"{module}.{prefix}{name}")
    return out


def test_every_function_has_a_reader():
    assert _unread_functions() == []


# Groups whose champions are concurrent, a long side, a cocked hat and the
# whole simplex, and one more product of two cyclic groups.
FIELD_GROUPS = ("1/11(1,2,8)", "1/30(25,2,3)", "1/13(1,5,7)",
                "1/2(1,1,0)+1/2(0,1,1)", "1/2(1,1,0)+1/4(0,1,3)")
DOCUMENTED_FIELDS = {"fan.SurfaceClass.neighbors", "fan.SurfaceClass.c"}


RECORDS = {
    "lattice": {"Generator", "GroupSpec", "LatticeContext"},
    "corners": {"CornerFan", "CyclicWord", "JuniorHulls"},
    "mmp": {"MMPTrace"},
    "partition": {"Line", "RegularTriangle", "ChampionsReport", "Partition"},
    "fan": {"BasicTriangle", "Fan", "SurfaceClass"},
    "monomials": {"TriangleRatios"},
    "clusters": {"ClusterSystem", "Classification"},
    "verify": {"CheckResult"},
}
# The one tuple dunder a record overrides: perfbench counts the lines of
# a group as len(cyclic_word(...)).
OWN_DUNDERS = {"corners.CyclicWord.__len__"}


def _package_records() -> list[type]:
    """The classes the package defines that subclass tuple and have
    _fields: its named tuples."""
    out = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        mod = importlib.import_module(f"ahilb.{path.stem}")
        out += [obj for obj in vars(mod).values()
                if inspect.isclass(obj) and issubclass(obj, tuple)
                and hasattr(obj, "_fields")
                and obj.__module__ == mod.__name__]
    return out


def _qualname(cls: type) -> str:
    return f"{cls.__module__.removeprefix('ahilb.')}.{cls.__name__}"


def test_records_are_the_named_tuples():
    found = {_qualname(cls) for cls in _package_records()}
    assert found == {f"{module}.{name}" for module, names in RECORDS.items()
                     for name in names}
    assert len(found) == 18
    assert f"{len(found)} in all" in README.read_text(encoding="utf-8")


def test_records_define_no_tuple_dunder_but_len():
    # What a bare NamedTuple generates, __repr__ and __new__ among it.
    generated = set(vars(NamedTuple("Bare", [("x", int)])))
    own = {f"{_qualname(cls)}.{name}" for cls in _package_records()
           for name in vars(cls)
           if name.startswith("__") and name in vars(tuple)
           and name not in generated}
    assert own == OWN_DUNDERS


def _dataclass_imports(path: Path) -> list[str]:
    """The import statements of path that name the dataclasses module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            out.append(f"{path.stem}:{node.lineno}")
    return out


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _dataclass_imports(path)
    assert found == []


def test_cold_start_loads_neither_dataclasses_nor_inspect():
    # Each command runs in a fresh interpreter, so what importing the CLI
    # pulls in is paid on every run.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ahilb.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.stdout == "[]\n"


def _record_field_reads(monkeypatch) -> tuple[set[str], set[str]]:
    """Every package record field, and the set that collects, from now
    on, the fields package code reads by name off an instance of their
    class."""
    package = {str(path) for path in PACKAGE.glob("*.py")}
    every, read = set(), set()
    for cls in _package_records():
        qual = _qualname(cls)
        names = set(cls._fields)
        every |= {f"{qual}.{name}" for name in names}

        def getattribute(self, name, _get=cls.__getattribute__,
                         _names=names, _qual=qual):
            if (name in _names
                    and sys._getframe(1).f_code.co_filename in package):
                read.add(f"{_qual}.{name}")
            return _get(self, name)

        monkeypatch.setattr(cls, "__getattribute__", getattribute)
    return every, read


def _run_every_command(monkeypatch, tmp_path):
    svg = str(tmp_path / "fig.svg")
    for spec in FIELD_GROUPS:
        for argv in (["report", spec], ["fan", spec],
                     ["draw", spec, "--svg", svg, "--ratios"],
                     ["clusters", spec], ["clusters", spec, "--triangle", "0"],
                     ["verify", spec]):
            assert cli.main(argv) == 0, argv
    # A failing check, so that its detail is printed.
    monkeypatch.setattr(ahilb.verify, "dp6_count", lambda part: -1)
    assert cli.main(["verify", FIELD_GROUPS[0]]) == 2


def test_every_field_has_a_reader_of_its_class(monkeypatch, tmp_path, capsys):
    every, read = _record_field_reads(monkeypatch)
    _run_every_command(monkeypatch, tmp_path)
    assert "FAIL (dP6 formula -1 vs census" in capsys.readouterr().out
    assert DOCUMENTED_FIELDS <= every
    assert sorted(every - read - DOCUMENTED_FIELDS) == []


def _arities() -> dict[str, list[tuple[int, float]]]:
    """(required, total) positional argument counts of every package
    function, class and method, by bare name; self is not counted."""
    out: dict[str, list[tuple[int, float]]] = {}

    def add(name, fn, bound):
        params = list(inspect.signature(fn).parameters.values())[bound:]
        positional = [p for p in params if p.kind in (
            p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        total = (float("inf") if any(p.kind == p.VAR_POSITIONAL
                                     for p in params) else len(positional))
        required = sum(1 for p in positional if p.default is p.empty)
        out.setdefault(name, []).append((required, total))

    for path in sorted(PACKAGE.glob("[!_]*.py")):
        mod = importlib.import_module(f"ahilb.{path.stem}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                add(name, obj, 0)
            elif inspect.isclass(obj) and not issubclass(obj, Exception):
                add(name, obj, 0)
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not meth.startswith("__"):
                        add(meth, fn, 1)
    return out


def _readme_calls() -> list[tuple[str, int]]:
    """Each `name(a, b, ...)` call in a README backtick span, with the
    bare name and its argument count."""
    calls = []
    for span in _readme_spans():
        for name, args in re.findall(r"([A-Za-z_][\w.]*)\(([^()]*)\)", span):
            calls.append((name.split(".")[-1],
                          len([a for a in args.split(",") if a.strip()])))
    return calls


def test_readme_calls_match_signatures():
    arities = _arities()
    calls = [(name, count) for name, count in _readme_calls()
             if name in arities]
    assert len(calls) >= 21
    wrong = [f"{name}: {count} arguments" for name, count in calls
             if not any(lo <= count <= hi for lo, hi in arities[name])]
    assert wrong == []
