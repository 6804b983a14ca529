import pytest

from braidpi.analysis import todd_coxeter
from braidpi.pipeline import GAMMA, GHAT, SIGMA
from braidpi.presentation import Presentation, add_relators, tietze_simplify
from braidpi.schreier import (CyclicMap, QuotientMapError, Transversal,
                              TransversalError, subgroup_presentation)
from braidpi.word_core import GenSym, Word, alphabet

from .reference import backmap_word

A, B = GenSym("a"), GenSym("b")


def word(*pairs):
    return Word.of(pairs)


def free(*names):
    return Presentation(alphabet(*names), [])


def test_index_three_subgroup_of_z():
    p = free("a")
    q = CyclicMap.onto(p, 3, {A: 1})
    sub, gens = subgroup_presentation(p, q)
    assert len(sub.alphabet) == 1 and sub.relators == ()
    x = sub.alphabet.symbols[0]
    assert gens.backmap[x] == Word.gen(A) ** 3


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("g", [2, 3])
def test_nielsen_schreier_rank(n, g):
    names = ["a", "b", "c"][:g]
    p = free(*names)
    images = {GenSym(nm): (1 if i == 0 else 0) for i, nm in enumerate(names)}
    q = CyclicMap.onto(p, n, images)
    sub, _ = subgroup_presentation(p, q)
    simplified, _ = tietze_simplify(sub)
    assert simplified.relators == ()
    assert len(simplified.alphabet) == n * (g - 1) + 1


def test_mixed_image_free_rank():
    p = free("a", "b")
    q = CyclicMap.onto(p, 3, {A: 1, B: 2})
    sub, _ = subgroup_presentation(p, q)
    simplified, _ = tietze_simplify(sub)
    assert len(simplified.alphabet) == 4 and simplified.relators == ()


def test_inconsistent_map_rejected():
    p = Presentation(alphabet("a"), [word((A, 1)) ** 5])
    with pytest.raises(QuotientMapError):
        CyclicMap.onto(p, 3, {A: 1})  # a^5 maps to 5 != 0 mod 3
    with pytest.raises(QuotientMapError):
        CyclicMap.onto(free("a", "b"), 4, {A: 2, B: 0})  # not onto
    with pytest.raises(QuotientMapError):
        CyclicMap.onto(free("a", "b"), 2, {A: 1})  # missing image


def test_subgroup_presentation_validates_the_map():
    # the checks of CyclicMap.onto, for a map built without them
    p = Presentation(alphabet("a"), [word((A, 1)) ** 5])
    for bad, q in ((p, CyclicMap(3, {A: 1})), (free("a", "b"), CyclicMap(4, {A: 2, B: 0})),
                   (free("a", "b"), CyclicMap(2, {A: 1}))):
        with pytest.raises(QuotientMapError):
            subgroup_presentation(bad, q)


def test_transversal_validation():
    p = free("a", "b")
    q = CyclicMap.onto(p, 2, {A: 1, B: 0})
    Transversal.of([Word.identity(), Word.gen(A)]).validate(q)
    with pytest.raises(TransversalError):
        Transversal.of([Word.gen(A), Word.identity()]).validate(q)
    with pytest.raises(TransversalError):
        Transversal.of([Word.identity(), Word.gen(B)]).validate(q)
    with pytest.raises(TransversalError):
        # maps correctly but is not prefix-closed
        Transversal.of([Word.identity(), word((B, 1), (A, 1), (B, -1))]).validate(q)


def test_default_transversal_is_schreier():
    p = free("a", "b")
    q = CyclicMap.onto(p, 5, {A: 2, B: 1})
    t = Transversal.schreier_default(p, q)
    t.validate(q)
    assert t.reps[0].is_identity()


def test_index_times_subgroup_order():
    # S3 = <a, b | a^2, b^2, (ab)^3>, kernel of a,b -> 1 mod 2 is C3
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1)) ** 2, word((B, 1)) ** 2,
                            (word((A, 1)) * word((B, 1))) ** 3])
    q = CyclicMap.onto(p, 2, {A: 1, B: 1})
    sub, _ = subgroup_presentation(p, q)
    assert todd_coxeter(p).order == 2 * todd_coxeter(sub).order == 6

    # Z12 = <a | a^12>, kernel of a -> 1 mod 4 is Z3
    z12 = Presentation(alphabet("a"), [word((A, 1)) ** 12])
    q4 = CyclicMap.onto(z12, 4, {A: 1})
    sub4, _ = subgroup_presentation(z12, q4)
    assert todd_coxeter(sub4).order == 3


def test_backmaps_lie_in_kernel():
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1)) ** 4, word((B, 1)) ** 4])
    q = CyclicMap.onto(p, 2, {A: 1, B: 1})
    sub, gens = subgroup_presentation(p, q)
    for sym, back in gens.backmap.items():
        assert q.residue(back) == 0
    # rewriting then backmapping returns the original kernel word
    for kernel_word in (word((A, 1), (B, 1)), word((A, 1), (A, 1)),
                        word((B, 1), (A, -1))):
        rewritten = gens.rewrite(kernel_word)
        assert backmap_word(gens, rewritten) == kernel_word


def test_rewrite_rejects_nonkernel_word():
    p = free("a", "b")
    q = CyclicMap.onto(p, 2, {A: 1, B: 0})
    _, gens = subgroup_presentation(p, q)
    with pytest.raises(QuotientMapError):
        gens.rewrite(Word.gen(A))


def test_named_generators():
    p = free("a")
    q = CyclicMap.onto(p, 2, {A: 1})
    x = GenSym("x")
    sub, gens = subgroup_presentation(p, q, names={(1, A): x})
    assert x in sub.alphabet
    assert gens.backmap[x] == Word.gen(A) ** 2


# Adjoining kernel relators before the cover gives the same presentation as
# adjoining their rewrites, started at every residue, after it.

def test_kernel_relators_before_cover_equal_rewrites_after():
    # Z^2 onto Z/3 by a; the kernel relators a^3, b^4 make Z/3 x Z/4
    p = Presentation(alphabet("a", "b"), [word((A, 1), (B, 1), (A, -1), (B, -1))])
    q = CyclicMap.onto(p, 3, {A: 1, B: 0})
    kernel = [word((A, 1)) ** 3, word((B, 1)) ** 4]
    before, _ = subgroup_presentation(add_relators(p, kernel), q)
    after, gens = subgroup_presentation(p, q)
    assert before == add_relators(after, [gens.rewrite(w, r) for w in kernel for r in range(3)])
    assert todd_coxeter(before).order == 4


def paper_relators_after_cover(pipe, m):
    """The orbifold cover of the simplified Z/2 cover, with G^m and s^m
    adjoined as rewrites after the Reidemeister-Schreier step."""
    gens = pipe.orbifold(m - 1).gens
    after, after_gens = subgroup_presentation(pipe.z2.simplified, gens.q, gens.transversal,
                                              {(m - 1, GAMMA): GHAT})
    kernel = [Word.gen(GAMMA) ** m, Word.gen(SIGMA) ** m]
    return add_relators(after, [after_gens.rewrite(w, r) for w in kernel for r in range(m)])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_paper_kernel_relators_before_cover_equal_rewrites_after(pipe, m):
    assert pipe.orbifold(m - 1).raw == paper_relators_after_cover(pipe, m)
