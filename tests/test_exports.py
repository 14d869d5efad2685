import importlib
import pkgutil

import kummer


def test_every_public_name_resolves():
    """Each entry of each module's ``__all__`` is defined, so a deletion
    cannot leave a stale name behind."""
    missing = []
    for info in pkgutil.iter_modules(kummer.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"kummer.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert missing == []
