"""The library keeps what its commands use.

Every top-level function or class in ``src/zecap`` (``__init__`` aside,
whose re-exports would otherwise vouch for everything), and every method
and property of a top-level class but the dunders, must be referenced from
somewhere outside its own definition: the rest of the package, the CLI's
``@_command`` table, or README's python block.  A method or property counts
only where it is read as an attribute.  Test-only surface cannot grow back
unnoticed.
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
    "channel.max_zero_error_code",
    # criterion 7 verifies that code's words pairwise with it
    "channel.words_distinguishable",
    # README criterion 3 proves sqrt(10) < 1 + sqrt(5) with it
    "creal.CReal.upper_bound",
}


NAMES = (ast.Name, ast.Attribute)  # how a top-level definition can be read


def _reads(tree: ast.AST, kinds=NAMES) -> Counter:
    """How often each name or attribute of these kinds is read anywhere in tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, kinds)
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


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each method of such a class but the dunders."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_command(node):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member


def unreferenced(package: Path = PACKAGE) -> list[str]:
    """module.name of each definition read from nowhere outside itself."""
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
    }
    trees = [_readme_python(), *modules.values()]
    reads = {
        kinds: sum((_reads(tree, kinds) for tree in trees), Counter())
        for kinds in (NAMES, ast.Attribute)
    }
    out = []
    for stem, tree in modules.items():
        for name, node in _definitions(tree):
            # a method or property is read only as an attribute: a local
            # variable that shares its name does not vouch for it
            kinds = ast.Attribute if "." in name else NAMES
            if reads[kinds][node.name] <= _reads(node, kinds)[node.name]:
                out.append(f"{stem}.{name}")
    return out


def test_every_top_level_definition_is_used():
    assert sorted(unreferenced()) == sorted(ALLOWED)


def test_the_scan_sees_an_unused_definition(tmp_path):
    # a copy of the package with a dead helper and two dead methods added,
    # one named like decide's local ``lam``, and a dunder beside them: the
    # scan names the helper and both methods
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        if path.stem == "graphs":
            text = text.replace(
                "class Graph:\n",
                "class Graph:\n"
                "    def _dead_method(self):\n        return self._dead_method()\n\n"
                "    def lam(self):\n        return None\n\n"
                "    def __dead_dunder__(self):\n        return None\n\n",
                1,
            )
            text += "\n\ndef _dead_helper():\n    return _dead_helper()\n"
        (tmp_path / path.name).write_text(text)
    found = unreferenced(tmp_path)
    assert "graphs._dead_helper" in found
    assert "graphs.Graph._dead_method" in found
    assert "graphs.Graph.lam" in found
    assert not any("__dead_dunder__" in name for name in found)
