"""Public-surface guard: every public name in ``src/repro`` is reached.

A module-level public function or class (no leading underscore), and
each public method or property of a public class, must be *reached*:
referenced by code that runs outside the test suite.  The roots are the
executables — ``repro.cli``, ``perfbench/``, ``benchmarks/``,
``examples/`` and the fenced python blocks of README.md and docs/*.md —
plus every module-level statement of ``src/repro`` that is not a
function or class definition (constants, registries, default
arguments).  A definition is reached when a reached piece of code names
it, read as an identifier or an attribute, anywhere outside the
definition's own body.  Reaching a class reaches its bases, decorators,
class-level statements and its dunder and ``_private`` methods; each
public method is reached on its own, once its class is.  Imports,
re-exports and ``__all__`` entries reach nothing.  The guard iterates to
a fixed point, so a helper called only by an unreached function is
unreached too.

Names are matched by identifier, not resolved to the module they come
from, so the guard errs towards "reached": two definitions that share a
name are both reached when either is.

A name that only its own unit tests call is dead weight: it is read,
documented and kept working, and no workload moves when it changes.
Delete it with its tests.  :data:`ALLOWED` lists the few unreached names
the test suite needs as oracles, each with its reason (the methods of an
allowed class are allowed with it); an entry that stops being unreached,
or stops existing, fails the guard too.

The knob guard below goes one level down: every defaulted parameter and
config field must be set by some executable, or be folded into its
default.
"""

import ast
import functools
import re
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLERS = ("perfbench", "benchmarks", "examples")
DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: ``module.name`` -> why it stays although no workload reaches it.
ALLOWED = {
    "repro.nn.gradcheck.numerical_gradient":
        "the finite-difference oracle every layer's backward test runs",
    "repro.nn.gradcheck.check_layer_gradients":
        "the gradient checker every layer test runs",
    "repro.video.codec.motion.predict_frame":
        "the decoder's prediction as one checked function, held by "
        "test_decode_oracle",
    "repro.abr.policies.BufferAbr":
        "an input of the playout-reference guard (test_playout_reference)",
    "repro.abr.trace.step_trace":
        "an input of the playout-reference guard (test_playout_reference)",
    "repro.video.frame.validate_rgb":
        "the range check for RGB frames that come from outside the library",
    "repro.video.synthetic.VideoClip.scene_changes":
        "the generator's ground-truth shot boundaries, which the scene-cut "
        "detector tests score against",
}


def _identifiers(node: ast.AST) -> set[str]:
    """Every name ``node`` reads or writes, and every attribute it names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def _is_export(statement: ast.stmt) -> bool:
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(statement, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in statement.targets)


def _caller_identifiers() -> set[str]:
    """What the executables outside ``src/`` name."""
    names = set()
    for directory in CALLERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            names |= _identifiers(ast.parse(path.read_text()))
    for path in DOC_FILES:
        for block in FENCE.findall(path.read_text()):
            names |= _identifiers(ast.parse(block))
    return names


@functools.cache
def _modules() -> tuple[tuple[str, ast.Module], ...]:
    """``(module, tree)`` of every file of ``src/repro``, parsed once."""
    return tuple(
        (".".join(path.relative_to(SRC.parent).with_suffix("").parts),
         ast.parse(path.read_text()))
        for path in sorted(SRC.rglob("*.py")))


def _library() -> list[tuple[str, ast.stmt]]:
    """``(module, statement)`` for every module-level statement of
    ``src/repro`` that is not an import or an ``__all__``."""
    return [(module, statement)
            for module, tree in _modules()
            for statement in tree.body if not _is_export(statement)]


def _public_methods(cls: ast.ClassDef) -> list[ast.stmt]:
    """The methods and properties of ``cls`` that must be reached on
    their own: neither dunder nor ``_private``."""
    return [statement for statement in cls.body
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not statement.name.startswith("_")]


def public_definitions() -> set[str]:
    names = set()
    for module, statement in _library():
        if (isinstance(statement, _DEFINITION)
                and not statement.name.startswith("_")):
            qualname = f"{module}.{statement.name}"
            names.add(qualname)
            if isinstance(statement, ast.ClassDef):
                names |= {f"{qualname}.{method.name}"
                          for method in _public_methods(statement)}
    return names


def _pending(qualname: str, definition: ast.stmt):
    """``(qualname, name, names it reaches, members)`` of one definition:
    once ``name`` is reached, its names are, and its ``members`` (the
    public methods of a public class, each reached on its own) wait in
    their turn."""
    if not (isinstance(definition, ast.ClassDef)
            and not definition.name.startswith("_")):
        return qualname, definition.name, _identifiers(definition), []
    methods = _public_methods(definition)
    names = set()
    for node in (*definition.decorator_list, *definition.bases,
                 *definition.keywords, *definition.body):
        if node not in methods:
            names |= _identifiers(node)
    return qualname, definition.name, names, [
        _pending(f"{qualname}.{method.name}", method) for method in methods]


def unreached() -> set[str]:
    """Public definitions no executable reaches: module-level functions
    and classes, and the public methods of reached public classes."""
    reached_names = _caller_identifiers()
    pending = []
    for module, statement in _library():
        if module == "repro.cli" or not isinstance(statement, _DEFINITION):
            reached_names |= _identifiers(statement)
        else:
            pending.append(_pending(f"{module}.{statement.name}", statement))
    grew = True
    while grew:
        grew = False
        for item in list(pending):
            _qualname, name, names, members = item
            if name in reached_names:
                pending.remove(item)
                reached_names |= names
                pending += members
                grew = True
    return {qualname for qualname, name, _names, _members in pending
            if not name.startswith("_")}


def test_every_public_definition_is_reached():
    missing = sorted(unreached() - set(ALLOWED))
    assert not missing, (
        "public names nothing outside the tests reaches (delete them with "
        "their tests, or list them in ALLOWED with a reason):\n  "
        + "\n  ".join(missing))


def test_allowlist_names_unreached_definitions():
    stale = sorted(set(ALLOWED) - public_definitions())
    assert not stale, f"ALLOWED names definitions that do not exist: {stale}"
    reached = sorted(set(ALLOWED) - unreached())
    assert not reached, f"ALLOWED names definitions that are reached: {reached}"


def test_guard_sees_the_roots():
    """The corpus is not empty, and a root's names count: ``main`` is
    reached through ``repro.cli``, ``FleetSimulator`` and its ``run``
    through perfbench."""
    assert "FleetSimulator" in _caller_identifiers()
    assert len(public_definitions()) > 100
    fleet_run = "repro.serve.scheduler.FleetSimulator.run"
    assert fleet_run in public_definitions()
    assert not {"repro.cli.main", "repro.serve.scheduler.FleetSimulator",
                fleet_run} & unreached()


# -- knobs -----------------------------------------------------------------
#
# A knob is a defaulted parameter of a public function or method (the
# ``__init__`` of a public class included) or a defaulted field of a
# dataclass named ``*Config`` or ``*Policy``.  It is *set* when a root
# gives it a value: passes it by keyword or by position to a callee of
# that identifier (the class, for ``__init__`` and fields; a base class
# through ``super().__init__``), or passes that callee ``*``/``**``
# arguments (a ``**name`` bound once to a dict display passes its keys);
# a field is also set when it is a ``repro.cli`` flag's ``dest``, a
# keyword of ``replace(...)``, or assigned as an attribute.  The roots
# are the executables of the reach guard and every library module, each
# call outside the knob's own definition.  A call that forwards the
# caller's own unset knob (``inner(x, mode=mode)`` inside ``outer``, see
# ``SYNTHETIC``) sets nothing until that knob is set, so a chain of
# forwarded defaults is flagged whole.  A knob no executable sets has one
# value in use: fold it into a constant.

#: knob -> why it stays although no executable sets it: (a) a recorded
#: oracle or a guard needs another value, (b) it bounds input from outside
#: the program or is a deployment setting, (c) it is a test seam, (d) the
#: saved manifest persists it.
ALLOWED_KNOBS = {
    "repro.abr.policies.BufferAbr(reservoir_s)":
        "(a) the playout-reference guard draws it per session",
    "repro.abr.policies.BufferAbr(cushion_s)":
        "(a) the playout-reference guard draws it per session",
    "repro.bench.runner.save_results(directory)":
        "(b) where results are written; tests write to a temporary one",
    "repro.bench.runner.load_results(directory)":
        "(b) where results are read; tests read a temporary one",
    "repro.control.controller.FixedController(precision)":
        "(c) pins a reduced-precision decision for the client tests",
    "repro.core.network.RetryPolicy.backoff_factor":
        "(a) download_counters.json records backoff at factor 1.7",
    "repro.core.parallel.ParallelConfig.chunk_size":
        "(a) the build digests are recorded with chunk size 2",
    "repro.net.chaos.ChaosConfig.reset_rate":
        "(c) the net tier's fault injector",
    "repro.net.chaos.ChaosConfig.truncate_rate":
        "(c) the net tier's fault injector",
    "repro.net.chaos.ChaosConfig.stall_rate":
        "(c) the net tier's fault injector",
    "repro.net.chaos.ChaosConfig.stall_hold_s":
        "(c) the net tier's fault injector",
    "repro.net.chaos.ChaosProxy(config)":
        "(c) the net tier's fault injector",
    "repro.net.chaos.ChaosProxy(host)":
        "(b) listen address of the fault injector",
    "repro.net.chaos.ChaosProxy(port)":
        "(b) listen port of the fault injector",
    "repro.net.chaos.ChaosProxy(obs)":
        "(c) the net tier's fault injector records into a test's session",
    "repro.net.origin.OriginConfig.max_request_bytes":
        "(b) bounds a request head from outside the program",
    "repro.net.origin.OriginConfig.idle_timeout_s":
        "(b) bounds how long an idle client from outside is kept",
    "repro.nn.functional.conv2d_shift_nhwc(residual)":
        "(a) the bitwise shift-kernel references take the fused residual "
        "epilogue through this NHWC entry",
    "repro.nn.functional.conv2d_shift_nhwc(res_scale)":
        "(a) the bitwise shift-kernel references take the fused residual "
        "epilogue through this NHWC entry",
}

_KNOB_CLASS = re.compile(r"(Config|Policy)$")


class Knob(NamedTuple):
    callees: tuple[str, ...]   # identifiers a setting call names
    name: str                  # parameter or field name
    index: int | None          # position a positional argument fills
    field: bool                # a dataclass field, not a parameter
    home: ast.AST              # calls inside this definition do not count


def _defaulted(function: ast.FunctionDef, bound: bool) -> list[tuple]:
    """``(name, position or None)`` of each defaulted parameter of
    ``function``; ``bound`` drops ``self``/``cls`` from the positions."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    out = [(arg.arg, position - bound)
           for position, arg in enumerate(positional)
           if position >= len(positional) - len(args.defaults)]
    out += [(arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in _identifiers(decorator)
               for decorator in cls.decorator_list)


def _fields(cls: ast.ClassDef) -> list[tuple]:
    """``(name, position)`` of each defaulted ``__init__`` field."""
    out, position = [], 0
    for statement in cls.body:
        if not (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)):
            continue
        value = statement.value
        if (isinstance(value, ast.Call) and any(
                keyword.arg == "init" for keyword in value.keywords)):
            continue
        if value is not None:
            out.append((statement.target.id, position))
        position += 1
    return out


@functools.cache
def knobs(modules: tuple) -> tuple[dict[str, Knob], dict]:
    """Every knob of ``modules`` (``(module, tree)`` pairs) by name —
    ``module.function(param)``, ``module.Class(param)`` for ``__init__``,
    ``module.Class.method(param)`` or ``module.Class.field`` — and, per
    defining function, which of its parameter names are which knobs."""
    table, params = {}, {}

    def add_function(qualname, function, callees, bound):
        for name, index in _defaulted(function, bound):
            key = f"{qualname}({name})"
            table[key] = Knob(callees, name, index, False, function)
            params.setdefault(function, {})[name] = key

    for module, tree in modules:
        for statement in tree.body:
            if not (isinstance(statement, _DEFINITION)
                    and not statement.name.startswith("_")):
                continue
            qualname = f"{module}.{statement.name}"
            if not isinstance(statement, ast.ClassDef):
                add_function(qualname, statement, (statement.name,), False)
                continue
            if _is_dataclass(statement) and _KNOB_CLASS.search(
                    statement.name):
                for name, index in _fields(statement):
                    table[f"{qualname}.{name}"] = Knob(
                        (statement.name,), name, index, True, statement)
            for method in statement.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                bound = "staticmethod" not in {
                    decorator.id for decorator in method.decorator_list
                    if isinstance(decorator, ast.Name)}
                if method.name == "__init__":
                    add_function(qualname, method, (statement.name,), bound)
                elif not method.name.startswith("_"):
                    add_function(f"{qualname}.{method.name}", method,
                                 (method.name,), bound)
    return table, params


class _Call(NamedTuple):
    callee: str
    positional: list[ast.expr]
    keywords: dict[str, ast.expr]
    unpacked: bool
    scope: frozenset           # ids of the enclosing definitions
    forwards: dict[str, str]   # a name in scope -> the knob it holds


def _dict_bindings(tree: ast.AST) -> dict[str, dict[str, ast.expr]]:
    """``name -> {key: value}`` for each name ``tree`` binds exactly once,
    to a ``dict(...)`` call or ``{...}`` display with literal keys: what a
    ``**name`` argument passes."""
    bound, stores = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.append(node.id)
        elif isinstance(node, ast.arg):
            stores.append(node.arg)
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        value = node.value
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "dict" and not value.args
                and all(keyword.arg for keyword in value.keywords)):
            bound[node.targets[0].id] = {
                keyword.arg: keyword.value for keyword in value.keywords}
        elif isinstance(value, ast.Dict) and all(
                isinstance(key, ast.Constant) for key in value.keys):
            bound[node.targets[0].id] = {
                key.value: item for key, item in zip(value.keys, value.values)}
    return {name: keys for name, keys in bound.items()
            if stores.count(name) == 1}


def _calls(tree: ast.AST, params: dict) -> tuple[list[_Call], list[tuple]]:
    """The calls in ``tree``, and ``(attribute, scope)`` for each
    attribute assigned outside ``self``."""
    calls, assigned = [], []
    dicts = _dict_bindings(tree)

    def visit(node, scope, forwards, bases):
        if isinstance(node, ast.ClassDef):
            bases = set().union(*map(_identifiers, node.bases))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            local = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)}
            forwards = {name: key for name, key in forwards.items()
                        if name not in local} | params.get(node, {})
        if isinstance(node, _DEFINITION):
            scope = scope | {id(node)}
        if isinstance(node, ast.Call):
            func = node.func
            callees = ([func.id] if isinstance(func, ast.Name) else
                       [func.attr] if isinstance(func, ast.Attribute) else [])
            if callees == ["__init__"] and _identifiers(func.value) == {
                    "super"}:
                callees = sorted(bases)   # super().__init__ calls a base
            if callees:
                keywords, unpacked = {}, any(
                    isinstance(arg, ast.Starred) for arg in node.args)
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        keywords[keyword.arg] = keyword.value
                    elif (isinstance(keyword.value, ast.Name)
                          and keyword.value.id in dicts):
                        keywords |= dicts[keyword.value.id]
                    else:
                        unpacked = True
                positional = [arg for arg in node.args
                              if not isinstance(arg, ast.Starred)]
                calls.extend(_Call(callee, positional, keywords, unpacked,
                                   scope, forwards) for callee in callees)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                if (isinstance(target, ast.Attribute) and not (
                        isinstance(target.value, ast.Name)
                        and target.value.id == "self")):
                    assigned.append((target.attr, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, forwards, bases)

    visit(tree, frozenset(), {}, set())
    return calls, assigned


def _cli_dests(trees: list[ast.AST]) -> set[str]:
    """The ``dest`` of every command-line flag ``trees`` declare."""
    dests = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and _identifiers(node.func) & {"add_argument", "add"}):
                continue
            keywords = {keyword.arg: keyword.value
                        for keyword in node.keywords}
            first = node.args[0] if node.args else None
            if isinstance(keywords.get("dest"), ast.Constant):
                dests.add(keywords["dest"].value)
            elif (isinstance(first, ast.Constant)
                  and str(first.value).startswith("--")):
                dests.add(first.value[2:].replace("-", "_"))
    return dests


@functools.cache
def _caller_trees() -> tuple[ast.AST, ...]:
    """The executables outside ``src/``: perfbench, benchmarks, examples
    and the python blocks of the docs."""
    trees = []
    for directory in CALLERS:
        trees += [ast.parse(path.read_text())
                  for path in sorted((ROOT / directory).rglob("*.py"))]
    for path in DOC_FILES:
        trees += [ast.parse(block) for block in FENCE.findall(path.read_text())]
    return tuple(trees)


def unset_knobs(roots: list[ast.AST] | None = None,
                library: str = "") -> set[str]:
    """Knobs no root sets, iterated to a fixed point over forwarded knobs.

    The roots are every library module and the executables; ``roots``
    replaces them, so the self-test can isolate one.  ``library`` is one
    more library module, ``synthetic``: its knobs count and it is a root.
    """
    modules = _modules()
    extra = ((("synthetic", ast.parse(library)),) if library else ())
    table, params = knobs(modules + extra)
    if roots is None:
        roots = [*(tree for _module, tree in modules), *_caller_trees()]
    roots = [*roots, *(tree for _module, tree in extra)]
    calls, assigned = [], []
    for tree in roots:
        tree_calls, tree_assigned = _calls(tree, params)
        calls += tree_calls
        assigned += tree_assigned
    by_callee = {}
    for call in calls:
        by_callee.setdefault(call.callee, []).append(call)
    dests = _cli_dests(roots)

    def gives(call, expr, done):
        return expr is not None and not (
            isinstance(expr, ast.Name) and expr.id in call.forwards
            and call.forwards[expr.id] not in done)

    def is_set(knob, done):
        if knob.field and (knob.name in dests or any(
                name == knob.name and id(knob.home) not in scope
                for name, scope in assigned) or any(
                gives(call, call.keywords.get(knob.name), done)
                for call in by_callee.get("replace", ()))):
            return True
        for callee in knob.callees:
            for call in by_callee.get(callee, ()):
                if id(knob.home) in call.scope:
                    continue
                if call.unpacked:
                    return True
                expr = call.keywords.get(knob.name)
                if (expr is None and knob.index is not None
                        and knob.index < len(call.positional)):
                    expr = call.positional[knob.index]
                if gives(call, expr, done):
                    return True
        return False

    done = set()
    grew = True
    while grew:
        grew = False
        for key, knob in table.items():
            if key not in done and is_set(knob, done):
                done.add(key)
                grew = True
    return set(table) - done


def allowance_errors(allowed: dict[str, str], table: dict,
                     unset: set[str]) -> list[str]:
    """What is wrong with an ``ALLOWED_KNOBS``-style table: entries that
    name no knob, are set after all, or give no reason (a)-(d)."""
    return ([f"{key}: no such knob" for key in sorted(set(allowed) - set(table))]
            + [f"{key}: set by an executable"
               for key in sorted(set(allowed) & set(table) - unset)]
            + [f"{key}: reason is not one of (a)-(d)"
               for key, reason in sorted(allowed.items())
               if not re.match(r"\([a-d]\) ", reason)])


def test_every_knob_is_set():
    missing = sorted(unset_knobs() - set(ALLOWED_KNOBS))
    assert not missing, (
        "defaulted parameters and config fields no executable sets (fold "
        "each into its default, or list it in ALLOWED_KNOBS with a "
        "reason):\n  " + "\n  ".join(missing))


def test_allowed_knobs_are_unset_knobs():
    errors = allowance_errors(ALLOWED_KNOBS, knobs(_modules())[0],
                              unset_knobs())
    assert not errors, "ALLOWED_KNOBS:\n  " + "\n  ".join(errors)


#: A library module for the self-test: one knob per way of setting one.
SYNTHETIC = """
from dataclasses import dataclass


def by_keyword(x, size=1): ...
def by_position(x, size=1): ...
def by_unpacking(x, size=1): ...
def by_nobody(x, size=1): ...
def outer(x, mode="a"):
    return inner(x, mode=mode)
def inner(x, mode="a"): ...


@dataclass
class WidgetConfig:
    depth: int = 2
    colour: str = "red"


def run(options):
    by_keyword(0, size=2)
    by_position(0, 2)
    by_unpacking(0, **options)
    by_nobody(0)
    outer(0)
    config = WidgetConfig()
    config.depth = 3
"""


def test_knob_guard_sees_the_roots():
    """A ``repro.cli`` dest sets ``FastPathConfig.tile``, a perfbench
    keyword ``FleetConfig.sessions``; neither is set without its root."""
    tile = "repro.core.client.FastPathConfig.tile"
    sessions = "repro.serve.scheduler.FleetConfig.sessions"
    cli = dict(_modules())["repro.cli"]
    fleet = ast.parse((ROOT / "perfbench" / "fleet.py").read_text())
    assert len(knobs(_modules())[0]) > 200
    assert {tile, sessions} <= unset_knobs(roots=[])
    assert tile not in unset_knobs(roots=[cli])
    assert sessions not in unset_knobs(roots=[fleet])


def test_knob_guard_sees_how_a_knob_is_set():
    """Keyword, position, ``**`` and an attribute assignment set a knob; a
    knob no call passes is reported, and so is a chain of defaults
    forwarded from one; an allowance that is set or gone fails."""
    unset = unset_knobs(library=SYNTHETIC)
    assert {key for key in unset if key.startswith("synthetic.")} == {
        "synthetic.by_nobody(size)", "synthetic.outer(mode)",
        "synthetic.inner(mode)", "synthetic.WidgetConfig.colour"}
    table = knobs(_modules() + (("synthetic", ast.parse(SYNTHETIC)),))[0]
    assert allowance_errors({"synthetic.by_nobody(size)": "(c) a seam"},
                            table, unset) == []
    assert allowance_errors(
        {"synthetic.by_keyword(size)": "(c) a seam",
         "synthetic.gone(size)": "(c) a seam",
         "synthetic.inner(mode)": "because"}, table, unset) == [
        "synthetic.gone(size): no such knob",
        "synthetic.by_keyword(size): set by an executable",
        "synthetic.inner(mode): reason is not one of (a)-(d)"]
