import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

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
