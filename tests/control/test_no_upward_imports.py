"""Layering guard: the lower layers never import upward.

``repro.control``, ``repro.core``, ``repro.sr``, ``repro.nn`` and
``repro.video`` are consumed by the fleet scheduler (``repro.serve``),
the real transport (``repro.net``) and the CLI; if any of them imported
one of those back, the dependency graph would cycle and the piece could
no longer be reused across call sites (upper layers hand their parts
down duck-typed instead).  This test walks each package's ASTs and fails
on any import of ``repro.serve``, ``repro.net`` or ``repro.cli``,
absolute or relative, at module level or inside a function.

``repro.abr`` sits below ``repro.control`` (the bridge adapts a
controller to it) and ``repro.core`` (whose sessions play on its
:class:`~repro.abr.PlayoutClock`): it may import neither, nor anything
above them, or ``core -> control -> abr`` would cycle.

``repro.bench`` (workloads and result printers) sits just under the CLI:
no library layer may import it, the serving and transport layers and
``repro.obs`` included — the two pure helpers they once borrowed from it
lazily (``format_table``, ``cdf_points``) live in ``repro.obs`` now.

``repro.native`` (the compiled kernels' build and load) is the bottom
layer: ``repro.nn`` and ``repro.video`` call into it, and it imports no
other ``repro`` package.

Links sit below telemetry: the three modules that implement
``repro.core.network.Network`` move bytes on a clock and count attempts
in their own ``stats``; what a session downloaded is rendered into the
registry from the fetch stage's ledger.  None of them may mention
``Observability`` or a metrics registry, in code or in prose.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

#: Packages that sit below the serving / transport / CLI layers.
LOWER_LAYERS = ("repro.control", "repro.core", "repro.sr", "repro.nn",
                "repro.video")
#: Layers they must never reach into, as relative (``from .. import``)
#: targets; absolute imports carry a ``repro.`` prefix.
BANNED_RELATIVE = ("serve", "net", "cli", "bench")
#: package -> what it must not import.  The upper library layers may
#: import each other downward (serve -> net -> core), but not the bench.
BANS = {**{package: BANNED_RELATIVE for package in LOWER_LAYERS},
        "repro.abr": ("core", "control") + BANNED_RELATIVE,
        "repro.obs": ("bench",), "repro.serve": ("bench",),
        "repro.net": ("bench",),
        "repro.native": ("abr", "clustering", "control", "core", "devices",
                         "features", "nn", "obs", "sr", "video")
        + BANNED_RELATIVE}
#: The link modules, as (package, file).
LINK_MODULES = (("repro.core", "network.py"), ("repro.serve", "netpool.py"),
                ("repro.net", "transport.py"))
_TELEMETRY = re.compile(r"Observability|MetricsRegistry|\.metrics\b")


def _package_dir(package: str) -> Path:
    return Path(importlib.import_module(package).__file__).parent


def _violations(path: Path, banned=BANNED_RELATIVE) -> list[str]:
    prefixes = tuple(f"repro.{name}" for name in banned)
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(prefixes):
                    out.append(f"{path.name}:{node.lineno}: "
                               f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith(prefixes):
                out.append(f"{path.name}:{node.lineno}: from {module}")
            elif node.level > 0:
                head = module.split(".", 1)[0] if module else ""
                targets = {head} | {alias.name for alias in node.names
                                    if not module}
                if targets & set(banned):
                    out.append(f"{path.name}:{node.lineno}: "
                               f"from {'.' * node.level}{module} import "
                               f"{', '.join(a.name for a in node.names)}")
    return out


@pytest.mark.parametrize("package", BANS)
def test_lower_layer_never_imports_upward(package):
    violations = [v for path in sorted(_package_dir(package).rglob("*.py"))
                  for v in _violations(path, BANS[package])]
    assert not violations, (
        f"{package} must not import "
        f"{', '.join(f'repro.{name}' for name in BANS[package])} "
        f"(layering: it sits below them):\n" + "\n".join(violations))


@pytest.mark.parametrize("package, name", LINK_MODULES)
def test_links_know_nothing_about_telemetry(package, name):
    source = (_package_dir(package) / name).read_text()
    hits = [f"{name}:{number}: {line.strip()}"
            for number, line in enumerate(source.splitlines(), 1)
            if _TELEMETRY.search(line)]
    assert not hits, (
        "a link counts in its own stats; the session ledger "
        "(repro.core.session.count_downloads) feeds the registry:\n"
        + "\n".join(hits))


def test_guard_sees_the_package():
    # The guard is only meaningful if it actually walks source files.
    for package in BANS:
        assert list(_package_dir(package).rglob("*.py")), package


def test_guard_catches_lazy_and_relative_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f():\n"
                   "    from ..serve.netpool import SharedNetworkPool\n"
                   "from .. import net\n"
                   "import repro.cli\n"
                   "def g():\n"
                   "    from ..bench.runner import format_table\n")
    assert len(_violations(bad)) == 4
    assert len(_violations(bad, banned=("bench",))) == 1
