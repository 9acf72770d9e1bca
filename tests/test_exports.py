import ast
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hermitia

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    for info in pkgutil.iter_modules(hermitia.__path__):
        yield importlib.import_module(f"hermitia.{info.name}")


def test_every_export_exists():
    checked = 0
    for mod in _modules():
        names = getattr(mod, "__all__", ())
        assert len(set(names)) == len(names), mod.__name__
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
        checked += len(names)
    assert checked > 100


def test_every_export_is_used_outside_its_module():
    """Tests are no users: a name passes if another package module,
    perfbench or a row of the claims ledger uses it."""
    sources = {path: path.read_text() for top in ("src", "perfbench")
               for path in (ROOT / top).rglob("*.py")}
    ledger = ROOT / "docs" / "claims.md"
    sources[ledger] = "\n".join(line for line in ledger.read_text().splitlines()
                                if line.startswith("|"))
    unused = []
    for mod in _modules():
        own = Path(mod.__file__).resolve()
        for name in getattr(mod, "__all__", ()):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for path, text in sources.items()
                       if path.resolve() != own):
                unused.append(f"{mod.__name__}.{name}")
    assert not unused, unused


def test_every_perfbench_span_resolves():
    """The benchmark tracer rebinds each (module, attr) of its SPANNED and
    COUNTED lists by name; one deleted or renamed here would silently drop
    out of a ``--trace 1`` run.  spans.py is read, not installed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pairs = spans.SPANNED + spans.COUNTED
    assert len(pairs) > 20
    missing = [f"{mod}.{attr}" for mod, attr in pairs
               if not callable(getattr(importlib.import_module(
                   f"hermitia.{mod}"), attr, None))]
    assert not missing, missing


def _owner_breaches(tree: ast.AST) -> list:
    """What a module does that only jets.py may: call a jet kernel method
    (``.mul`` or ``.derivative``), read ``conj_perm`` or import ``Jet``;
    and what only ``metric.per_point`` may: define ``point_reader``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("mul", "derivative")):
            found.append(f"calls .{node.func.attr}(")
        elif isinstance(node, (ast.Attribute, ast.Name)) and \
                getattr(node, "attr", getattr(node, "id", None)) == "conj_perm":
            found.append("reads conj_perm")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name.split(".")[-1] == "Jet" for alias in node.names):
            found.append("imports Jet")
        elif isinstance(node, ast.FunctionDef) and node.name == "point_reader":
            found.append("defines point_reader")
    return found


def test_jet_rules_have_one_owner():
    """The order rule and the array arithmetic of jets have one home,
    jets.py, and the jet order a reader computes at one, ``per_point``."""
    breaches = {}
    for path in sorted((ROOT / "src" / "hermitia").glob("*.py")):
        if path.name != "jets.py":
            found = _owner_breaches(ast.parse(path.read_text()))
            if found:
                breaches[path.name] = sorted(set(found))
    assert not breaches, breaches
    assert sorted(_owner_breaches(ast.parse(
        "from .jets import Jet\nx.conj_perm\nalg.derivative(a, 0)\n"
        "def point_reader(fn): pass\n"))) == [
        "calls .derivative(", "defines point_reader", "imports Jet",
        "reads conj_perm"]


@pytest.mark.parametrize("argv", [
    ("run.py", "--setup-probe", "--workload", "points"),
    ("run.py", "--setup-probe", "--workload", "forms"),
    ("run.py", "--setup-probe", "--workload", "flow"),
    ("gates.py",)])
def test_perfbench_setup_and_gates_run(argv):
    """The benchmark's set-up (which builds ``jets.Jet(n, order)`` and the
    lazy tables of its workload) and its gates' self-test run on this
    tree; a set-up probe prints its time in seconds."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    if "--setup-probe" in argv:
        assert float(done.stdout.split()[-1]) >= 0
