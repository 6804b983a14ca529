import functools
import importlib

import braidpi


def test_public_names_resolve():
    for name in braidpi.__all__:
        assert getattr(braidpi, name) is not None, name


def test_no_module_level_caches():
    for module in ("analysis", "braid", "cli", "curves", "pipeline", "presentation",
                   "schreier", "word_core"):
        mod = importlib.import_module(f"braidpi.{module}")
        cached = [name for name, value in vars(mod).items()
                  if isinstance(value, functools._lru_cache_wrapper)]
        assert not cached, (module, cached)
