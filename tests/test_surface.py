"""The library keeps what its commands use.

Every top-level function or class in ``src/zecap`` (``__init__`` aside,
whose re-exports would otherwise vouch for everything) must be referenced
from somewhere outside its own definition: the rest of the package, the
CLI's ``@_command`` table, or README's python block.  Test-only surface
cannot grow back unnoticed.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zecap"

# Each name here is library surface that nothing in the package calls:
ALLOWED = {
    # README criterion 7 and the module table's zecap.channel row document
    # the optimal two-letter zero-error code of the pentagon channel
    "max_zero_error_code",
    # criterion 7 verifies that code's words pairwise with it
    "words_distinguishable",
}


def _reads(tree: ast.AST) -> Counter:
    """How often each name or attribute is read anywhere in tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _is_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_command"
        for d in getattr(node, "decorator_list", ())
    )


def _readme_python() -> ast.Module:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks, "README has no python block"
    return ast.parse("\n".join(blocks))


def unreferenced(package: Path = PACKAGE) -> list[str]:
    """module.name of each top-level function or class read from nowhere
    outside its own definition."""
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
    }
    reads = _reads(_readme_python())
    for tree in modules.values():
        reads += _reads(tree)
    out = []
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_command(node):
                continue
            if reads[node.name] <= _reads(node)[node.name]:
                out.append(f"{stem}.{node.name}")
    return out


def test_every_top_level_definition_is_used():
    assert sorted(unreferenced()) == sorted(
        f"channel.{name}" for name in ALLOWED
    )


def test_the_scan_sees_an_unused_definition(tmp_path):
    # a copy of the package with one dead helper added: the scan names it
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "graphs.py", "a") as f:
        f.write("\n\ndef _dead_helper():\n    return _dead_helper()\n")
    assert "graphs._dead_helper" in unreferenced(tmp_path)
