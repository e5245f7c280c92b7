"""The benchmark harness in ``bench/`` uses only names the package has.

The harness is not imported here (importing it pins BLAS threads for the
whole process); its sources are parsed instead.  Every ``from tandel...
import name`` and every attribute read from a tandel module or class
must resolve, so a deletion that breaks the benchmark fails tier-1 and
not only a benchmark run.
"""
import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _from_import(module: str, name: str):
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return getattr(importlib.import_module(module), name)


def _tandel_names(tree: ast.Module) -> list:
    """(qualified name, resolves) for every tandel name ``tree`` uses."""
    bound, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "tandel":
                    bound[alias.asname or alias.name] = (
                        importlib.import_module(alias.name))
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.partition(".")[0] == "tandel"):
            for alias in node.names:
                qual = f"{node.module}.{alias.name}"
                try:
                    bound[alias.asname or alias.name] = _from_import(
                        node.module, alias.name)
                except AttributeError:
                    found.append((qual, False))
                else:
                    found.append((qual, True))

    def resolve(node):
        """The module or class an expression names, or None."""
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if owner is not None:
                return getattr(owner, node.attr, None)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if inspect.ismodule(owner):
                qual = owner.__name__
            elif inspect.isclass(owner):
                qual = f"{owner.__module__}.{owner.__qualname__}"
            else:
                continue
            if qual.partition(".")[0] == "tandel":
                found.append((f"{qual}.{node.attr}",
                              hasattr(owner, node.attr)))
    return found


def test_bench_tandel_names_resolve():
    used = {}
    for path in sorted(BENCH.glob("*.py")):
        for qual, ok in _tandel_names(ast.parse(path.read_text())):
            used.setdefault(qual, []).append((path.name, ok))
    missing = sorted(f"{files[0][0]}: {qual}" for qual, files in used.items()
                     if not all(ok for _, ok in files))
    assert not missing
    # the parse sees the harness's entry points
    for qual in ("tandel.verify.oracle_match_report",
                 "tandel.manifolds.GeodesicGraph",
                 "tandel._kernels.using_numba", "tandel.cli.main"):
        assert qual in used, qual


def test_an_unknown_bench_name_is_reported():
    tree = ast.parse("from tandel import manifolds\n"
                     "from tandel.verify import no_such_check\n"
                     "manifolds.no_such_estimate(1)\n"
                     "manifolds.UnitSphere.no_such_method\n")
    missing = {qual for qual, ok in _tandel_names(tree) if not ok}
    assert missing == {"tandel.verify.no_such_check",
                       "tandel.manifolds.no_such_estimate",
                       "tandel.manifolds.UnitSphere.no_such_method"}
