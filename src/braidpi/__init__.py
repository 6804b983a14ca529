"""Braid-monodromy group computations over plane-curve configurations.

Submodules: ``word_core`` (free-group words), ``braid`` (Artin actions),
``presentation`` (finitely presented groups, Tietze moves), ``schreier``
(subgroup presentations), ``analysis`` (Todd-Coxeter, Smith normal form),
``curves`` (exact conic/cubic geometry on one sparse ``Poly``),
``grammar`` (the text grammar of words and presentations), ``pipeline``
(the cover computation, its regression corpus read from the printed
relations), ``cli`` (command line).

The cover computation is a ``Pipeline``: its constructor builds Pi' and
the Z/2 cover once, and ``Pipeline.run(k)`` builds the Z/(k+1) orbifold
cover and certifies it; each cover stage is one call of ``cover``.
``run(k)`` does the same in a fresh Pipeline.

Public names resolve on first use (PEP 562): ``import braidpi`` loads no submodule.
"""

import importlib

# the submodule that defines each public name
_HOME = {name: module for module, names in {
    "analysis": "AbelianInvariants CosetLimitExceeded CosetTable abelian_invariants holds_in "
                "is_abelian smith_normal_form todd_coxeter",
    "braid": "Braid act compose",
    "curves": "Poly ProjPoint QuadScalar cubic_discriminant family_cubic hessian is_tangent_at "
              "sylvester_resultant verify_persson_configuration",
    "pipeline": "Cover Pipeline PipelineReport cover paper_braids pi_prime regression_corpus run",
    "presentation": "Presentation TietzeLog add_relators conjugation_relators stabilizer_relators "
                    "tietze_simplify",
    "schreier": "CyclicMap SchreierGenSet Transversal subgroup_presentation",
    "word_core": "Alphabet GenSym Word alphabet",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
