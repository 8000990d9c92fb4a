"""Every name a `lamda` module or a `benchmarks/` script imports is used there,
and no `lamda` module reads an environment variable.

The one exception is the allow-list of bindings that perfbench's tracer
test reads: each entry names the `perfbench/` file that needs it, and
leaves the list once that file no longer binds the name.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lamda")

# (module, name) -> the perfbench file that binds `module.name`
PERFBENCH_SHIMS = {
    ("adapter", "matmul"): "perfbench/test_perfbench.py",
    ("model", "slice_cols"): "perfbench/test_perfbench.py",
    ("allocator", "svd"): "perfbench/test_perfbench.py",
}

# `__init__.py` imports only to re-export, so it is not checked.
MODULES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")
BENCH = os.path.join(ROOT, "benchmarks")
BENCHMARKS = sorted(f[:-3] for f in os.listdir(BENCH) if f.endswith(".py"))


def _tree(module, directory=SRC):
    with open(os.path.join(directory, f"{module}.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _unused_imports(module, directory=SRC):
    tree = _tree(module, directory)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    unused = {name: line for name, line in _unused_imports(module).items()
              if (module, name) not in PERFBENCH_SHIMS}
    assert not unused, f"lamda/{module}.py imports names it never uses: {unused}"


@pytest.mark.parametrize("script", BENCHMARKS)
def test_every_benchmark_import_is_used(script):
    unused = _unused_imports(script, BENCH)
    assert not unused, f"benchmarks/{script}.py imports names it never uses: {unused}"


@pytest.mark.parametrize("module, name", sorted(PERFBENCH_SHIMS))
def test_each_shim_is_unused_and_bound_by_perfbench(module, name):
    assert name in _unused_imports(module), f"{module}.{name} is used; drop it from the list"
    with open(os.path.join(ROOT, PERFBENCH_SHIMS[module, name]), encoding="utf-8") as fh:
        assert f'"{module}.{name}"' in fh.read()


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_module_reads_the_environment(module):
    """The package has no environment knob, so a retired flag such as
    LDA_NO_NUMBA or LDA_FLOAT_MODE cannot come back as one."""
    reads = [node.lineno for node in ast.walk(_tree(module))
             if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                 and isinstance(node.value, ast.Name) and node.value.id == "os")
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and any(alias.name in ("environ", "getenv") for alias in node.names))]
    assert not reads, f"lamda/{module}.py reads the environment on lines {reads}"
