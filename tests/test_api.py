import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidpi
from braidpi import analysis, cli, pipeline

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


# run in a fresh interpreter: print the braidpi submodules one CLI call loads
_LOADED_BY = """
import contextlib, io, sys
argv = sys.argv[1:]
if argv:
    from braidpi import cli
    sys.stdin = io.StringIO("< a b | a^2, b^3, a b a b >")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
else:
    import braidpi
print(" ".join(sorted(name[len("braidpi."):] for name in sys.modules
                      if name.startswith("braidpi."))))
"""


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def test_public_names_resolve():
    for name in braidpi.__all__:
        assert getattr(braidpi, name) is not None, name


def test_public_names_resolve_lazily():
    assert set(braidpi.__all__) <= set(dir(braidpi))
    star: dict = {}
    exec("from braidpi import *", star)
    for name in braidpi.__all__:
        assert star[name] is getattr(braidpi, name), name
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        braidpi.nonsense


@pytest.mark.parametrize("argv,loaded,absent", [
    ([], set(), {"grammar", *MODULES}),
    (["tc", "-"], {"cli", "analysis"}, {"curves", "pipeline", "schreier"}),
    (["abelianize", "-"], {"cli", "analysis"}, {"curves", "pipeline", "schreier"}),
    (["present", "-", "--simplify"], {"cli", "presentation"},
     {"curves", "pipeline", "schreier"}),
    (["schreier", "-", "--mod", "2", "--images", "a=1,b=0", "--simplify"],
     {"cli", "schreier"}, {"curves", "pipeline"}),
    (["verify-config"], {"cli", "curves"}, {"pipeline", "schreier"}),
], ids=["import braidpi", "tc", "abelianize", "present", "schreier", "verify-config"])
def test_subcommands_load_only_their_layers(argv, loaded, absent):
    done = subprocess.run([sys.executable, "-c", _LOADED_BY, *argv], env=_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    modules = set(done.stdout.split())
    assert loaded <= modules and not modules & absent, modules


def test_no_module_level_caches():
    for module in MODULES:
        mod = importlib.import_module(f"braidpi.{module}")
        cached = [name for name, value in vars(mod).items()
                  if isinstance(value, functools._lru_cache_wrapper)]
        assert not cached, (module, cached)
    # no module-level dict, list or set fills up as a side table either
    done = subprocess.run([sys.executable, "-c", _SIZES_ACROSS_RUN], env=_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_benchmark_harness_hooks_resolve(tmp_path):
    # benchmarks/tracer.py times layers by replacing these names; a renamed
    # one would silently read 0 there
    for owner, name in ((cli, "todd_coxeter"), (cli, "tietze_simplify"),
                        (cli, "parse_presentation"), (cli, "verify_persson_configuration"),
                        (pipeline, "run"), (pipeline, "todd_coxeter"), (pipeline, "holds_in"),
                        (pipeline, "tietze_simplify"), (pipeline, "subgroup_presentation"),
                        (analysis, "smith_normal_form")):
        assert callable(getattr(owner, name, None)), (owner.__name__, name)
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "benchmarks" / "test_checks.py")],
                          cwd=root, env=_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # and the commands look the hooked names up when they run
    spans_file = tmp_path / "spans.json"
    for argv, stdin, layers in (
            (["verify-config", "--json"], "", {"curves.verify_config"}),
            (["tc", "-"], "< a b | a^2, b^3, a b a b >", {"cli.parse", "analysis.todd_coxeter"})):
        done = subprocess.run([sys.executable, str(root / "benchmarks" / "tracer.py"),
                               str(spans_file), *argv], input=stdin, cwd=root, env=_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        names = {span[0] for span in json.loads(spans_file.read_text())}
        assert layers <= names, (argv, names)
