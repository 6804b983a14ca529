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
"""

from .analysis import (AbelianInvariants, CosetLimitExceeded, CosetTable,
                       abelian_invariants, holds_in, is_abelian,
                       smith_normal_form, todd_coxeter)
from .braid import Braid, act, compose
from .curves import (Poly, ProjPoint, QuadScalar, cubic_discriminant, family_cubic,
                     hessian, is_tangent_at, sylvester_resultant,
                     verify_persson_configuration)
from .pipeline import (Cover, Pipeline, PipelineReport, cover, paper_braids,
                       pi_prime, regression_corpus, run)
from .presentation import (Presentation, TietzeLog, add_relators,
                           conjugation_relators, stabilizer_relators,
                           tietze_simplify)
from .schreier import CyclicMap, SchreierGenSet, Transversal, subgroup_presentation
from .word_core import Alphabet, GenSym, Word, alphabet

__all__ = [
    "AbelianInvariants", "Alphabet", "Braid", "CosetLimitExceeded", "CosetTable",
    "Cover", "CyclicMap", "GenSym", "Pipeline", "PipelineReport", "Poly",
    "Presentation", "ProjPoint", "QuadScalar", "SchreierGenSet", "TietzeLog",
    "Transversal", "Word", "abelian_invariants", "act", "add_relators", "alphabet",
    "compose", "conjugation_relators", "cover", "cubic_discriminant", "family_cubic",
    "hessian", "holds_in", "is_abelian", "is_tangent_at", "paper_braids", "pi_prime",
    "regression_corpus", "run", "smith_normal_form", "stabilizer_relators",
    "subgroup_presentation", "sylvester_resultant", "tietze_simplify", "todd_coxeter",
    "verify_persson_configuration",
]
