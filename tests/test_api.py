import functools
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import braidpi
from braidpi import analysis, cli, pipeline

# every submodule of the package, so a new one is checked without being listed
MODULES = tuple(sorted(m.name for m in pkgutil.iter_modules(braidpi.__path__)))

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


# run in a fresh interpreter: print the modules loaded after one CLI call
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
print(" ".join(sys.modules))
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


# every command loads these; a cold call compiles each module it loads
_CORE = {"cli", "grammar", "presentation", "word_core"}
# what the commands that run the whole cover computation load
_ALL_BUT_CURVES = set(MODULES) - {"curves"}


@pytest.mark.parametrize("argv,loaded,absent", [
    ([], set(), set(MODULES)),
    (["tc", "-"], _CORE | {"cosets"},
     {"tietze", "analysis", "braid", "curves", "pipeline", "schreier"}),
    (["abelianize", "-"], _CORE | {"analysis"},
     {"tietze", "cosets", "braid", "curves", "pipeline", "schreier"}),
    (["present", "-", "--simplify"], _CORE | {"tietze"},
     {"cosets", "analysis", "braid", "curves", "pipeline", "schreier"}),
    (["present", "-"], _CORE,
     {"tietze", "cosets", "analysis", "braid", "curves", "pipeline", "schreier"}),
    (["schreier", "-", "--mod", "2", "--images", "a=1,b=0", "--simplify"],
     _CORE | {"schreier", "tietze"}, {"cosets", "analysis", "braid", "curves", "pipeline"}),
    (["verify-config"], _CORE | {"curves"},
     {"tietze", "cosets", "analysis", "braid", "schreier", "pipeline"}),
    (["act", "--braid", "s1 s2'", "--word", "d1 d2"], _CORE | {"braid"},
     {"tietze", "cosets", "analysis", "schreier", "curves", "pipeline"}),
    (["pipeline", "--k", "1"], _ALL_BUT_CURVES, {"curves"}),
    (["pipeline", "--k", "1", "--json"], _ALL_BUT_CURVES, {"curves"}),
    (["regression", "--k", "1"], _ALL_BUT_CURVES, {"curves"}),
    (["tc", "-", "--json"], _CORE | {"cosets"},
     {"tietze", "analysis", "braid", "curves", "pipeline", "schreier"}),
], ids=["import braidpi", "tc", "abelianize", "present", "present without --simplify",
        "schreier", "verify-config", "act", "pipeline --k 1", "pipeline --k 1 --json",
        "regression --k 1", "tc --json"])
def test_subcommands_load_only_their_layers(argv, loaded, absent):
    done = subprocess.run([sys.executable, "-c", _LOADED_BY, *argv], env=_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    modules = set(done.stdout.split())
    layers = {name[len("braidpi."):] for name in modules if name.startswith("braidpi.")}
    assert loaded <= layers and not layers & absent, layers
    # no call pays for the dataclass machinery, and only --json loads json
    assert not modules & {"dataclasses", "inspect"}, modules & {"dataclasses", "inspect"}
    assert ("json" in modules) == ("--json" in argv), argv


def test_presentation_loads_no_braid():
    # Pi's monodromy relators are built in pipeline: presentations need no braids
    done = subprocess.run([sys.executable, "-c",
                           "import sys, braidpi.presentation; print(' '.join(sys.modules))"],
                          env=_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    modules = done.stdout.split()
    assert "braidpi.presentation" in modules and "braidpi.braid" not in modules


def test_no_module_level_caches():
    assert {"tietze", "cosets"} <= set(MODULES)
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
                        (pipeline, "run"), (pipeline, "todd_coxeter"),
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
            (["tc", "-"], "< a b | a^2, b^3, a b a b >", {"cli.parse", "analysis.todd_coxeter"}),
            # deferred imports: the hooked names still reach the layers they load
            (["present", "-", "--simplify"], "< a b | a^2, b^3, a b a b >",
             {"cli.parse", "presentation.tietze"}),
            (["abelianize", "-", "--json"], "< a b | a^2, b^3, a b a b >", {"analysis.smith"})):
        done = subprocess.run([sys.executable, str(root / "benchmarks" / "tracer.py"),
                               str(spans_file), *argv], input=stdin, cwd=root, env=_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        names = {span[0] for span in json.loads(spans_file.read_text())}
        assert layers <= names, (argv, names)
    # a traced pipeline run reaches its cover and enumeration layers
    done = subprocess.run([sys.executable, str(root / "benchmarks" / "tracer.py"),
                           str(spans_file), "pipeline", "--k", "1"], cwd=root, env=_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    spans = json.loads(spans_file.read_text())
    assert {"pipeline.run", "schreier.subgroup", "analysis.todd_coxeter"} <= {
        span[0] for span in spans}
