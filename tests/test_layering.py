"""The paper's layering, asserted on the source tree (AST only).

``docs/architecture.md`` says the run-time system is four layers with
narrow interfaces and that :class:`~repro.core.runtime.MRTS` is wiring.
This file makes that a test: it parses ``src/`` and ``bench/layers.py``
without importing either, so it cannot be fooled by what happens to be
monkey-patched at run time, and it is cheap enough for tier-1.

It also prints a per-module line table and writes ``layering.json``
(``runtime.py`` lines, ``MRTS`` method count, cross-module underscore
reads) — CI uploads it so the trend is visible per PR.
"""

import ast
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORE = SRC / "repro" / "core"

# Who may import whom: a module imports only modules of lower rank.
# (``runtime`` wires all of them; ``ooc`` and ``stats`` sit at the bottom,
# ``ooc`` being the policy tests build without an engine.)
RANK = {"ooc": 0, "stats": 0, "spill": 1, "control": 2, "computing": 3,
        "runtime": 4}
LAYER_MODULES = ("control", "spill", "computing", "ooc", "stats")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _core_imports(path: Path) -> set[str]:
    """Names of ``repro.core`` submodules ``path`` imports, anywhere in
    the file (function-level and ``TYPE_CHECKING`` imports included)."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[:2] == ["repro", "core"]:
                if len(parts) > 2:
                    found.add(parts[2])
                else:
                    found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[:2] == ["repro", "core"] and len(parts) > 2:
                    found.add(parts[2])
    return found


# ------------------------------------------------------------ import rules
def test_layers_import_only_downward():
    for name in LAYER_MODULES:
        imports = _core_imports(CORE / f"{name}.py")
        assert "runtime" not in imports, f"core/{name}.py imports runtime"
        upward = {m for m in imports if RANK.get(m, -1) >= RANK[name]}
        assert not upward, f"core/{name}.py imports upward: {sorted(upward)}"


def test_runtime_wires_every_layer():
    imports = _core_imports(CORE / "runtime.py")
    assert {"computing", "control", "spill", "ooc", "stats"} <= imports


# --------------------------------------------------------- MRTS is wiring
def _own_nodes(fn: ast.AST):
    """Nodes of ``fn``'s body, not descending into nested functions."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _methods(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    return [n for n in cls.body if isinstance(n, ast.FunctionDef)]


def test_runtime_classes_define_no_process_bodies():
    """DES process bodies (generator functions) belong to the layers."""
    for cls in ast.walk(_tree(CORE / "runtime.py")):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in _methods(cls):
            yields = [n for n in _own_nodes(fn)
                      if isinstance(n, (ast.Yield, ast.YieldFrom))]
            assert not yields, f"{cls.name}.{fn.name} is a generator"


def _accounting_lines(path: Path) -> list[str]:
    pattern = re.compile(r"bus\.publish\(|\.stats\.node\(")
    return [
        f"{path.name}:{i}"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line.split("#", 1)[0])
    ]


def test_one_accounting_path():
    """Counters and events are written by the Ledger, nowhere else."""
    stray = [
        hit for path in sorted(CORE.glob("*.py")) if path.name != "stats.py"
        for hit in _accounting_lines(path)
    ]
    assert stray == []
    assert _accounting_lines(CORE / "stats.py")  # the pattern still matches


def test_one_rebuild_from_bytes():
    """``object.__new__`` + ``MobileObject.__init__`` + ``unpack`` is
    written once, as ``core.mobile.revive``: spill loads, ``repro.dist``
    workers and the dist coordinator all rebuild objects through it."""
    sites = [
        f"{path.relative_to(SRC)}:{i}"
        for path in sorted(SRC.rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "object.__new__(" in line
    ]
    assert len(sites) == 1 and sites[0].startswith("repro/core/mobile.py:")


_OOC_MUTATORS = {"admit", "confirm_admit", "confirm_load", "confirm_evict",
                 "resize", "force_resize", "forget"}


def _residency_calls(tree: ast.Module) -> list[str]:
    """Calls that mutate residency by hand: an ``OOCLayer`` mutator on
    anything named ``ooc``, a ``LocalObject(`` or a ``bind_dirty(``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", getattr(func, "id", None))
        receiver = getattr(func, "value", None)
        on_ooc = getattr(receiver, "attr", getattr(receiver, "id", None))
        if name in ("LocalObject", "bind_dirty") or (
                name in _OOC_MUTATORS and on_ooc == "ooc"):
            found.append(f"{name}:{node.lineno}")
    return found


def test_one_residency_implementation():
    """Residency changes only through ``core``: outside it, a node's
    objects are admitted, loaded, resized and spilled by ``spill``
    functions, never by driving the ``OOCLayer`` or the records by hand
    (``repro.dist`` workers included)."""
    stray = {
        str(path.relative_to(SRC)): calls
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path.parent != CORE
        for calls in [_residency_calls(_tree(path))] if calls
    }
    assert stray == {}
    assert _residency_calls(_tree(CORE / "spill.py"))  # the check still bites


# ------------------------------------- no hook closes over what it hangs on
def _bound_names(fn) -> set[str]:
    """Names a function binds itself: parameters, assignment targets,
    nested definitions (nested scopes' own bindings are not its own)."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    if isinstance(fn, ast.Lambda):
        return names
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


def _closure_variables(inner, outer) -> set[str]:
    """Variables of ``outer`` that ``inner`` (defined in it) closes over."""
    loaded = {n.id for n in ast.walk(inner)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return (loaded - _bound_names(inner)) & _bound_names(outer)


def _hooks_hung_on_objects(path: Path):
    """``(function, target, closure variables)`` for every
    ``target.attr = <a function defined right here>`` in ``path``."""
    for outer in ast.walk(_tree(path)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner_defs = {n.name: n for n in _own_nodes(outer)
                      if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in _own_nodes(outer):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if isinstance(value, ast.Name):
                value = inner_defs.get(value.id)
            if not isinstance(value, (ast.FunctionDef, ast.Lambda)):
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name):
                    yield (outer.name, target.value.id,
                           _closure_variables(value, outer))


def test_no_hook_closes_over_the_object_it_is_installed_on():
    """``obj.attr = closure`` with ``obj`` free in the closure is a
    reference cycle: the object then outlives its eviction until the
    cyclic collector runs, which is host memory the out-of-core layer
    believes it released.  The dirty hook is the one such assignment in
    ``core/``; it closes over the node and the object id, and gets the
    instance as an argument."""
    found = {}
    for path in sorted(CORE.glob("*.py")):
        for fn, target, captured in _hooks_hung_on_objects(path):
            assert target not in captured, \
                f"{path.name}:{fn} hangs a closure over {target!r} on it"
            found[f"{path.stem}.{fn}"] = captured
    assert found["spill.bind_dirty"] == {"nrt", "oid"}


# ------------------------------------------- cross-module underscore reads
_RT_NAMES = {"rt", "runtime", "mrts"}


def _mentions_mrts(annotation) -> bool:
    return annotation is not None and "MRTS" in ast.unparse(annotation)


class _UnderscoreReads(ast.NodeVisitor):
    """Collect ``<an MRTS>._private`` attribute reads in one module.

    What counts as "a name bound to an MRTS": a parameter annotated
    ``MRTS``; under ``repro/core`` every ``rt`` / ``runtime`` (each one
    there is an MRTS) and ``self.rt`` / ``self.runtime``; elsewhere those
    names only in a module that imports ``MRTS``, and not when they are a
    parameter annotated otherwise or not at all (``check_dist(runtime)``
    takes a ``DistRuntime``).  ``repro/dist`` has its own runtime class
    and is skipped by the caller.
    """

    def __init__(self, in_core: bool, imports_mrts: bool) -> None:
        self.default = in_core or imports_mrts
        self.in_core = in_core
        self.scopes: list[dict[str, bool]] = []
        self.hits: list[int] = []

    def _visit_function(self, node) -> None:
        scope = {}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in _RT_NAMES:
                scope[arg.arg] = self.in_core or _mentions_mrts(arg.annotation)
            elif _mentions_mrts(arg.annotation):
                scope[arg.arg] = True
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def _is_mrts(self, node) -> bool:
        if isinstance(node, ast.Name):
            for scope in reversed(self.scopes):
                if node.id in scope:
                    return scope[node.id]
            return node.id in _RT_NAMES and self.default
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr.lstrip("_") in _RT_NAMES
            and self.default
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        private = node.attr.startswith("_") and not node.attr.startswith("__")
        if private and self._is_mrts(node.value):
            self.hits.append(node.lineno)
        self.generic_visit(node)


def _underscore_reads() -> dict[str, list[int]]:
    reads = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro")
        if rel.parts[0] == "dist" or rel == Path("core/runtime.py"):
            continue
        text = path.read_text()
        visitor = _UnderscoreReads(
            in_core=rel.parts[0] == "core",
            imports_mrts=bool(re.search(r"import .*\bMRTS\b", text)),
        )
        visitor.visit(ast.parse(text))
        lines = sorted(set(visitor.hits))
        if lines:
            reads[str(rel)] = lines
    return reads


def test_no_module_reaches_into_mrts_privates():
    assert _underscore_reads() == {}


# ------------------------------------------------- the bench's name bindings
def _module_path(dotted: str) -> Path:
    path = SRC.joinpath(*dotted.split("."))
    return path.with_suffix(".py") if not path.is_dir() else path / "__init__.py"


def test_bench_span_bindings_still_resolve():
    """``bench/layers.py`` binds spans by name, and a method that is not
    defined *on the class itself* silently reads 0 s (``rebind_methods``
    looks in ``cls.__dict__``)."""
    layers = _tree(ROOT / "bench" / "layers.py")
    origin: dict[str, tuple[str, str | None]] = {}  # local -> (module, attr)
    for node in layers.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
            for alias in node.names:
                local = alias.asname or alias.name
                as_module = _module_path(f"{node.module}.{alias.name}")
                if as_module.exists():
                    origin[local] = (f"{node.module}.{alias.name}", None)
                else:
                    origin[local] = (node.module, alias.name)

    def definitions(module: str, kind) -> dict[str, ast.AST]:
        return {n.name: n for n in _tree(_module_path(module)).body
                if isinstance(n, kind)}

    checked = 0
    for call in ast.walk(layers):
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)):
            continue
        target = call.args[0] if call.args else None
        if call.func.attr == "trace_methods" and isinstance(target, ast.Name) \
                and target.id in origin and isinstance(call.args[1], ast.List):
            module, cls_name = origin[target.id]
            cls = definitions(module, ast.ClassDef)[cls_name]
            own = {fn.name for fn in _methods(cls)}
            for elt in call.args[1].elts:
                assert elt.value in own, f"{cls_name}.{elt.value} is gone"
                checked += 1
        elif call.func.attr in ("trace_function", "count_function") \
                and isinstance(target, ast.Attribute):
            module, _ = origin[target.value.id]
            assert target.attr in definitions(module, ast.FunctionDef), \
                f"{module}.{target.attr} is gone"
            checked += 1
    # Every class the storage table names still exists where it says.
    for node in ast.walk(layers):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Attribute) and key.value.id in origin:
                    module, _ = origin[key.value.id]
                    assert key.attr in definitions(module, ast.ClassDef)
                    checked += 1
    assert checked >= 30  # the walk found the bindings it is meant to check


# ------------------------------------------------------------- the numbers
def test_shape_report(capsys):
    mrts = next(n for n in _tree(CORE / "runtime.py").body
                if isinstance(n, ast.ClassDef) and n.name == "MRTS")
    lines = {
        f"core/{name}.py": len((CORE / f"{name}.py").read_text().splitlines())
        for name in sorted(RANK, key=lambda m: (-RANK[m], m))
    }
    reads = _underscore_reads()
    report = {
        "lines": lines,
        "mrts_methods": len(_methods(mrts)),
        "cross_module_underscore_reads": sum(map(len, reads.values())),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }
    (ROOT / "layering.json").write_text(json.dumps(report, indent=2) + "\n")
    with capsys.disabled():
        print()
        for module, n in lines.items():
            print(f"  {module:<22} {n:>5} lines")
        print(f"  MRTS methods           {report['mrts_methods']:>5}")
        print(f"  cross-module _reads    "
              f"{report['cross_module_underscore_reads']:>5}")
    assert lines["core/runtime.py"] <= 800
