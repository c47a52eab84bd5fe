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


# every Fourier transform in src goes through these two functions, which
# perfbench's grids.fft.points probe wraps
FFT_FUNCTIONS = {("grids", "spectrum_to_samples"), ("grids", "samples_to_spectrum")}


@pytest.mark.parametrize("name", MODULES)
def test_numpy_fft_only_in_the_grid_transforms(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "numpy"}
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        if isinstance(node, ast.Import):
            uses.extend((a.name, function) for a in node.names if a.name.startswith("numpy.fft"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.startswith("numpy.fft")
                or node.module == "numpy" and any(a.name == "fft" for a in node.names)):
            uses.append((node.module, function))
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            uses.append((ast.unparse(node), function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    assert all((name, function) in FFT_FUNCTIONS for _, function in uses), uses
