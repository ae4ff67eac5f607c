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
"""

import ast
import re
from pathlib import Path

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


def _library() -> list[tuple[str, ast.stmt]]:
    """``(module, statement)`` for every module-level statement of
    ``src/repro`` that is not an import or an ``__all__``."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        out += [(module, statement)
                for statement in ast.parse(path.read_text()).body
                if not _is_export(statement)]
    return out


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
