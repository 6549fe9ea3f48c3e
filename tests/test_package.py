import importlib
import pkgutil

import rsbarrier


def test_every_all_entry_resolves():
    # __main__ runs the command line on import, so it is left out
    names = ["rsbarrier"] + [f"rsbarrier.{m.name}" for m in pkgutil.iter_modules(rsbarrier.__path__)
                             if m.name != "__main__"]
    assert len(names) > 10
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ lists undefined {missing}"
