"""Package hygiene: the exported names exist and src imports only numpy and the stdlib."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavepax"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module("wavepax" if name == "__init__" else f"wavepax.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_stdlib_and_numpy(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots <= set(sys.stdlib_module_names) | {"numpy"}, roots


@pytest.mark.parametrize("name", MODULES)
def test_reads_no_environment_variable(name):
    # sizes such as evolution.DEFAULT_CHUNK and _SLAB_BYTES are set in code
    # only: no module reads os.environ or os.getenv, under any alias
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"):
            reads.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [a.name for a in node.names if a.name in ("environ", "environb", "getenv")]
    assert not reads, reads
