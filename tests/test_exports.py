import importlib
import pkgutil

import hermitia


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
