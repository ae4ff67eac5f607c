"""Public-surface guard: every public name in ``src/repro`` is reached.

A module-level public function or class (no leading underscore) must be
*reached*: referenced by code that runs outside the test suite.  The
roots are the executables — ``repro.cli``, ``perfbench/``,
``benchmarks/``, ``examples/`` and the fenced python blocks of README.md
and docs/*.md — plus every module-level statement of ``src/repro`` that
is not a function or class definition (constants, registries, default
arguments).  A definition is reached when a reached piece of code names
it, read as an identifier or an attribute, anywhere outside the
definition's own body; reaching a class reaches all of its methods.
Imports, re-exports and ``__all__`` entries reach nothing.  The guard
iterates to a fixed point, so a helper called only by an unreached
function is unreached too.

Names are matched by identifier, not resolved to the module they come
from, so the guard errs towards "reached": two definitions that share a
name are both reached when either is.

A name that only its own unit tests call is dead weight: it is read,
documented and kept working, and no workload moves when it changes.
Delete it with its tests.  :data:`ALLOWED` lists the few unreached names
the test suite needs as oracles, each with its reason; an entry that
stops being unreached, or stops existing, fails the guard too.
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


def public_definitions() -> set[str]:
    return {f"{module}.{statement.name}"
            for module, statement in _library()
            if isinstance(statement, _DEFINITION)
            and not statement.name.startswith("_")}


def unreached() -> set[str]:
    """Public module-level definitions no executable reaches."""
    statements = _library()
    reached_names = _caller_identifiers()
    pending = []
    for module, statement in statements:
        if module == "repro.cli" or not isinstance(statement, _DEFINITION):
            reached_names |= _identifiers(statement)
        else:
            pending.append((module, statement))
    grew = True
    while grew:
        grew = False
        for item in list(pending):
            if item[1].name in reached_names:
                pending.remove(item)
                reached_names |= _identifiers(item[1])
                grew = True
    return {f"{module}.{statement.name}" for module, statement in pending
            if not statement.name.startswith("_")}


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
    reached through ``repro.cli`` and ``FleetSimulator`` through perfbench."""
    assert "FleetSimulator" in _caller_identifiers()
    assert len(public_definitions()) > 100
    assert not {"repro.cli.main", "repro.serve.scheduler.FleetSimulator"} \
        & unreached()
