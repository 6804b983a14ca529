import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import braidpi
from braidpi import cli, pipeline

MODULES = ("analysis", "braid", "cli", "curves", "pipeline", "presentation",
           "schreier", "word_core")

# run in a fresh interpreter: a module-level table filled by earlier tests
# would not grow again in this one
_SIZES_ACROSS_RUN = f"""
import importlib
from braidpi import pipeline

def sizes():
    return {{(module, name): len(value)
            for module in {MODULES!r}
            for name, value in vars(importlib.import_module("braidpi." + module)).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))}}

before = sizes()
assert before, "no module-level tables seen"
pipeline.run(1)
after = sizes()
grown = {{key: (before.get(key), n) for key, n in after.items() if before.get(key) != n}}
assert not grown, grown
"""


def test_public_names_resolve():
    for name in braidpi.__all__:
        assert getattr(braidpi, name) is not None, name


def test_no_module_level_caches():
    for module in MODULES:
        mod = importlib.import_module(f"braidpi.{module}")
        cached = [name for name, value in vars(mod).items()
                  if isinstance(value, functools._lru_cache_wrapper)]
        assert not cached, (module, cached)
    # no module-level dict, list or set fills up as a side table either
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _SIZES_ACROSS_RUN], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_benchmark_harness_hooks_resolve():
    # benchmarks/tracer.py times layers by replacing these names; a renamed
    # one would silently read 0 there
    for owner, name in ((cli, "todd_coxeter"), (pipeline, "todd_coxeter"),
                        (pipeline, "holds_in"), (cli, "parse_presentation")):
        assert callable(getattr(owner, name, None)), (owner.__name__, name)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, str(root / "benchmarks" / "test_checks.py")],
                          cwd=root, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
