"""Static guard: ``repro.net`` is asyncio-only — never ``threading``.

The real transport's loopback test topology (client and origin sharing
one event loop, chaos proxy in between) and the 1:1 mapping between
chaos-proxy requests and download attempts both require a single
thread of control.  Unlike the serve-layer guard (which tolerates
``threading.Lock``), this one bans *any* ``threading`` import: the net
package has no shared mutable state that isn't loop-confined, so a lock
showing up means the design drifted.
"""

import ast
from pathlib import Path

import repro.net

NET_DIR = Path(repro.net.__file__).parent


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "threading":
                    out.append(f"{path.name}:{node.lineno} imports "
                               f"{alias.name}")
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "threading":
                out.append(f"{path.name}:{node.lineno} imports from "
                           f"{node.module}")
            if node.module.split(".")[0] == "concurrent":
                out.append(f"{path.name}:{node.lineno} imports from "
                           f"{node.module}")
    return out


def test_net_package_never_imports_threading():
    sources = sorted(NET_DIR.glob("*.py"))
    assert sources, f"no sources under {NET_DIR}"
    problems = [v for src in sources for v in _violations(src)]
    assert not problems, (
        "repro.net must be asyncio-only (no threading):\n  "
        + "\n  ".join(problems))


def test_net_package_uses_asyncio():
    # The inverse claim: the concurrency primitive actually present is
    # asyncio, in every runtime module of the package.
    for name in ("origin", "transport", "chaos"):
        source = (NET_DIR / f"{name}.py").read_text()
        tree = ast.parse(source)
        imports = {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names}
        assert "asyncio" in imports, f"{name}.py does not import asyncio"


def test_guard_catches_threading(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import threading\n")
    assert _violations(bad)
    also_bad = tmp_path / "bad2.py"
    also_bad.write_text("from concurrent.futures import ThreadPoolExecutor\n")
    assert _violations(also_bad)
    fine = tmp_path / "fine.py"
    fine.write_text("import asyncio\n")
    assert not _violations(fine)
