"""Braid-monodromy group computations over plane-curve configurations.

Submodules: ``word_core`` (free-group words), ``braid`` (Artin actions),
``presentation`` (finitely presented groups, whose relators are int codes
in their own alphabet, decoded to ``Word``s only to print, log or trace),
``tietze`` (Tietze moves and their logs), ``schreier`` (the kernel of a
checked map onto Z/n and its ``SchreierGenSet``, by
``subgroup_presentation``, rewriting codes to codes), ``cosets``
(Todd-Coxeter), ``analysis`` (Smith normal form), ``curves`` (exact
conic/cubic geometry over Q on one sparse ``Poly``; irrational points are
checked in rational coordinates x = sqrt(d) X, as the curves are even in
x), ``grammar`` (the text grammar of words and presentations),
``pipeline`` (the cover computation, its regression corpus read from the
printed relations), ``cli`` (command line).

The cover computation is a ``Pipeline``: its constructor builds Pi' and
the Z/2 cover once, and ``Pipeline.run(k)`` builds the Z/(k+1) orbifold
cover and certifies it; each cover stage is one call of ``cover``, and its
``SchreierGenSet`` pushes the stage's words down to T(k) through its backmaps.
``run(k)`` does the same in a fresh Pipeline.

Public names resolve on first use (PEP 562): ``import braidpi`` loads no submodule.
"""

import importlib

# the submodule that defines each public name
_HOME = {name: module for module, names in {
    "analysis": "AbelianInvariants abelian_invariants smith_normal_form",
    "braid": "Braid act compose",
    "cosets": "CosetTable holds_in is_abelian is_regular todd_coxeter",
    "curves": "Poly ProjPoint cubic_discriminant family_cubic hessian is_tangent_at "
              "sylvester_resultant verify_persson_configuration",
    "pipeline": "Cover Pipeline PipelineReport cover paper_braids pi_prime regression_corpus run",
    "presentation": "CosetLimitExceeded Presentation add_relators",
    "schreier": "SchreierGenSet subgroup_presentation",
    "tietze": "TietzeLog tietze_simplify",
    "word_core": "Alphabet GenSym Word alphabet",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
