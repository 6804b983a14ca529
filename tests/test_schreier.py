import re

import pytest

from braidpi.cosets import todd_coxeter
from braidpi.pipeline import GAMMA, GHAT, SIGMA
from braidpi.presentation import Presentation, add_relators
from braidpi.schreier import QuotientMapError, TransversalError, subgroup_presentation
from braidpi.tietze import tietze_simplify
from braidpi.word_core import Alphabet, GenSym, Word, alphabet

from .reference import backmap_word

A, B = GenSym("a"), GenSym("b")


def word(*pairs):
    return Word.of(pairs)


def free(*names):
    return Presentation(alphabet(*names), [])


def test_index_three_subgroup_of_z():
    p = free("a")
    sub, gens = subgroup_presentation(p, 3, {A: 1})
    assert len(sub.alphabet) == 1 and sub.relators == ()
    x = sub.alphabet.symbols[0]
    assert gens.backmap[x] == Word.gen(A) ** 3


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("g", [2, 3])
def test_nielsen_schreier_rank(n, g):
    names = ["a", "b", "c"][:g]
    p = free(*names)
    images = {GenSym(nm): (1 if i == 0 else 0) for i, nm in enumerate(names)}
    sub, _ = subgroup_presentation(p, n, images)
    simplified, _ = tietze_simplify(sub)
    assert simplified.relators == ()
    assert len(simplified.alphabet) == n * (g - 1) + 1


def test_mixed_image_free_rank():
    p = free("a", "b")
    sub, _ = subgroup_presentation(p, 3, {A: 1, B: 2})
    simplified, _ = tietze_simplify(sub)
    assert len(simplified.alphabet) == 4 and simplified.relators == ()


# each case also breaks every check after its own, and the transversal
@pytest.mark.parametrize("p,modulus,images,error,message", [
    (free("a", "b"), 0, {}, ValueError, "modulus must be >= 1"),
    (free("a", "b"), 4, {A: 2}, QuotientMapError, "no image for generator b"),
    (Presentation(alphabet("a"), [word((A, 1)) ** 5]), 4, {A: 2}, QuotientMapError,
     "relator a^5 maps to 2 != 0 mod 4"),
    (free("a", "b"), 4, {A: 2, B: 0}, QuotientMapError, "images generate 2Z/4Z, map not onto"),
], ids=["modulus", "missing-image", "relator", "not-onto"])
def test_inconsistent_map_rejected(p, modulus, images, error, message):
    for reps in (None, [Word.gen(A)]):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            subgroup_presentation(p, modulus, images, reps)


def test_images_are_read_mod_the_modulus():
    _, gens = subgroup_presentation(free("a", "b"), 3, {A: -1, B: 7})
    assert gens.images == {A: 2, B: 1}
    assert gens.residue(word((A, 1), (B, 1), (A, 1))) == 2


def test_transversal_validation():
    p = free("a", "b")
    subgroup_presentation(p, 2, {A: 1, B: 0}, [Word.identity(), Word.gen(A)])
    for reps, message in (
            ([Word.identity(), Word.gen(A), Word.gen(A)], "3 representatives for modulus 2"),
            ([Word.gen(A), Word.identity()], "representative of residue 0 must be the identity"),
            ([Word.identity(), Word.gen(B)], "representative b maps to 0, not 1"),
            # maps correctly but is not prefix-closed
            ([Word.identity(), word((B, 1), (A, 1), (B, -1))],
             "not a Schreier transversal: prefix of b a b' missing"),
            ([Word.identity(), Word.gen(GenSym("c"))], "no image for symbol c")):
        error = QuotientMapError if "no image" in message else TransversalError
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            subgroup_presentation(p, 2, {A: 1, B: 0}, reps)


def test_transversal_error_names_the_first_word_with_a_missing_prefix():
    # a b a comes before a b, and only a b lacks its prefix one letter shorter;
    # the error names a b a, whose prefix a is missing too
    a, b = Word.gen(A), Word.gen(B)
    with pytest.raises(TransversalError,
                       match="^not a Schreier transversal: prefix of a b a missing$"):
        subgroup_presentation(free("a", "b"), 3, {A: 2, B: 0}, [Word.identity(), a * b * a, a * b])


def test_default_transversal_is_schreier():
    p = free("a", "b")
    _, gens = subgroup_presentation(p, 5, {A: 2, B: 1})
    assert gens.reps[0].is_identity()
    assert [gens.residue(u) for u in gens.reps] == list(range(5))
    # the given transversal passes every check, and gives the same kernel
    assert subgroup_presentation(p, 5, {A: 2, B: 1}, gens.reps)[1].backmap == gens.backmap


def test_index_times_subgroup_order():
    # S3 = <a, b | a^2, b^2, (ab)^3>, kernel of a,b -> 1 mod 2 is C3
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1)) ** 2, word((B, 1)) ** 2,
                            (word((A, 1)) * word((B, 1))) ** 3])
    sub, _ = subgroup_presentation(p, 2, {A: 1, B: 1})
    assert todd_coxeter(p).order == 2 * todd_coxeter(sub).order == 6

    # Z12 = <a | a^12>, kernel of a -> 1 mod 4 is Z3
    z12 = Presentation(alphabet("a"), [word((A, 1)) ** 12])
    sub4, _ = subgroup_presentation(z12, 4, {A: 1})
    assert todd_coxeter(sub4).order == 3


def test_backmaps_lie_in_kernel():
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1)) ** 4, word((B, 1)) ** 4])
    sub, gens = subgroup_presentation(p, 2, {A: 1, B: 1})
    for sym, back in gens.backmap.items():
        assert gens.residue(back) == 0
    # rewriting then backmapping returns the original kernel word
    for kernel_word in (word((A, 1), (B, 1)), word((A, 1), (A, 1)),
                        word((B, 1), (A, -1))):
        rewritten = gens.rewrite(kernel_word)
        assert backmap_word(gens, rewritten) == kernel_word


def test_rewrite_rejects_nonkernel_word():
    _, gens = subgroup_presentation(free("a", "b"), 2, {A: 1, B: 0})
    with pytest.raises(QuotientMapError, match="^word a is not in the kernel$"):
        gens.rewrite(Word.gen(A))


def test_named_generators():
    x = GenSym("x")
    sub, gens = subgroup_presentation(free("a"), 2, {A: 1}, names={(1, A): x})
    assert x in sub.alphabet
    assert gens.backmap[x] == Word.gen(A) ** 2


# Adjoining kernel relators before the cover gives the same presentation as
# adjoining their rewrites, started at every residue, after it.

def test_kernel_relators_before_cover_equal_rewrites_after():
    # Z^2 onto Z/3 by a; the kernel relators a^3, b^4 make Z/3 x Z/4
    p = Presentation(alphabet("a", "b"), [word((A, 1), (B, 1), (A, -1), (B, -1))])
    kernel = [word((A, 1)) ** 3, word((B, 1)) ** 4]
    before, _ = subgroup_presentation(add_relators(p, kernel), 3, {A: 1, B: 0})
    after, gens = subgroup_presentation(p, 3, {A: 1, B: 0})
    assert before == add_relators(after, [gens.rewrite(w, r) for w in kernel for r in range(3)])
    assert todd_coxeter(before).order == 4


def paper_relators_after_cover(pipe, m):
    """The orbifold cover of the simplified Z/2 cover, with G^m and s^m
    adjoined as rewrites after the Reidemeister-Schreier step."""
    gens = pipe.orbifold(m - 1).gens
    after, after_gens = subgroup_presentation(pipe.z2.simplified, gens.modulus, gens.images,
                                              gens.reps, {(m - 1, GAMMA): GHAT})
    kernel = [Word.gen(GAMMA) ** m, Word.gen(SIGMA) ** m]
    return add_relators(after, [after_gens.rewrite(w, r) for w in kernel for r in range(m)])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_paper_kernel_relators_before_cover_equal_rewrites_after(pipe, m):
    assert pipe.orbifold(m - 1).raw == paper_relators_after_cover(pipe, m)


@pytest.mark.parametrize("stage", ["z2", "orbifold"])
def test_subgroup_presentation_rewrites_codes_to_codes(stage, pipe, monkeypatch):
    # the parent's codes are rewritten straight into the kernel's, with no word
    # decoded or encoded; the public Word rewrite gives the same kernel relators
    cover = pipe.z2 if stage == "z2" else pipe.orbifold(2)
    gens = cover.gens
    names = {key: sym for key, sym in gens.gens.items() if sym is not None}
    calls = []
    for method in ("decode", "encode"):
        real = getattr(Alphabet, method)
        monkeypatch.setattr(Alphabet, method, lambda self, w, real=real:
                            calls.append(w) or real(self, w))
    raw, _ = subgroup_presentation(cover.parent, gens.modulus, gens.images, gens.reps, names)
    assert calls == []
    monkeypatch.undo()
    assert raw == cover.raw
    words = [gens.rewrite(w, r) for w in cover.parent.relators for r in range(gens.modulus)]
    assert Presentation(gens.alphabet, words) == raw
