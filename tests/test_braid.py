import random

import pytest

from braidpi import pipeline
from braidpi.braid import Braid, StrandMismatchError, act, compose, strand_images
from braidpi.pipeline import fiber_alphabet, paper_braids
from braidpi.word_core import Alphabet, GenSym, Word

from .reference import substitute

FIBER = fiber_alphabet()
D = [None] + [GenSym("d", i) for i in range(1, 6)]


def d(i, e=1):
    return Word.gen(D[i], 1 if e > 0 else -1) ** abs(e)


def sigma(i, sign=1):
    return Braid.gen(5, i, sign)


def rand_word(rng, k):
    return Word.of((D[rng.randrange(1, 6)], rng.choice((1, -1))) for _ in range(k))


def rand_braid(rng, k):
    return Braid(5, tuple((rng.randrange(1, 5), rng.choice((1, -1))) for _ in range(k)))


def test_generator_action():
    assert act(sigma(2), d(2), FIBER) == d(3)
    assert act(sigma(2), d(3), FIBER) == d(3, -1) * d(2) * d(3)
    assert act(sigma(3), d(1), FIBER) == d(1)


def test_inverse_generator_action():
    assert act(sigma(2, -1), d(3), FIBER) == d(2)
    assert act(sigma(2, -1), d(2), FIBER) == d(2) * d(3) * d(2, -1)
    for i in range(1, 5):
        for word in (d(1), d(4), d(2) * d(5, -1)):
            assert act(sigma(i, -1), act(sigma(i), word, FIBER), FIBER) == word


def test_printed_beta1_inverse_images():
    b1inv = paper_braids()["b1"].inverse()
    expected = {
        1: (d(1) * d(2) * d(3) * d(2, -1) * d(1, -1) * d(2, -1) * d(1) * d(2)
            * d(4) * d(2, -1) * d(1, -1) * d(2) * d(1) * d(2) * d(3, -1)
            * d(2, -1) * d(1, -1)),
        2: d(1) * d(2) * d(3) * d(2, -1) * d(1, -1),
        3: (d(2, -1) * d(1) * d(2) * d(4, -1) * d(2, -1) * d(1, -1) * d(2)
            * d(1) * d(2) * d(4) * d(2, -1) * d(1, -1) * d(2)),
        4: d(2, -1) * d(1) * d(2),
        5: d(5),
    }
    for i, img in expected.items():
        assert act(b1inv, d(i), FIBER) == img
    # the sixth printed identity (d4 d5) b1^-1 = d1 d2 uses the relation
    # d5 = d2' d1' d2 d1 d2; the free image is d2' d1 d2 d5
    assert act(b1inv, d(4) * d(5), FIBER) == d(2, -1) * d(1) * d(2) * d(5)


def test_compose_and_invert():
    assert act(compose(sigma(1), sigma(1, -1)), d(1) * d(2), FIBER) == d(1) * d(2)
    assert (sigma(1) * sigma(2)).inverse() == Braid(5, ((2, -1), (1, -1)))
    b = paper_braids()
    chain = (Braid(5, tuple((4, -1) for _ in range(6))) * sigma(2, -1)
             * b["b1"] * sigma(2) * Braid(5, tuple((4, 1) for _ in range(6))))
    assert b["b-1"] == chain


def test_right_action_composition():
    rng = random.Random(21)
    for _ in range(200):
        b1, b2 = rand_braid(rng, 4), rand_braid(rng, 4)
        word = rand_word(rng, 6)
        assert act(compose(b1, b2), word, FIBER) == act(b2, act(b1, word, FIBER), FIBER)


def test_braid_relations_as_actions():
    rng = random.Random(22)
    for _ in range(300):
        word = rand_word(rng, 8)
        for i in range(1, 5):
            for j in range(1, 5):
                if abs(i - j) >= 2:
                    assert (act(sigma(i) * sigma(j), word, FIBER)
                            == act(sigma(j) * sigma(i), word, FIBER))
        for i in range(1, 4):
            assert (act(sigma(i) * sigma(i + 1) * sigma(i), word, FIBER)
                    == act(sigma(i + 1) * sigma(i) * sigma(i + 1), word, FIBER))


def test_action_preserves_products():
    rng = random.Random(23)
    for _ in range(300):
        b = rand_braid(rng, 5)
        u, v = rand_word(rng, 6), rand_word(rng, 6)
        assert act(b, u * v, FIBER) == act(b, u, FIBER) * act(b, v, FIBER)


def test_full_twist_word_is_fixed():
    twist = d(1) * d(2) * d(3) * d(4) * d(5)
    braids = paper_braids()
    for name in ("b0", "b1", "b+"):
        image = act(braids[name], twist, FIBER).cyclically_reduced()
        target = twist.cyclically_reduced()
        rotations = [Word(target.letters[k:] + target.letters[:k])
                     for k in range(len(target))]
        assert image in rotations  # conjugate; in fact the action fixes it


def test_paper_braid_letter_counts():
    b = paper_braids()
    assert len(b["b0"]) == 14
    assert b["b1"].letters == ((1, -1), (2, 1), (3, 1), (1, 1), (2, -1), (1, 1))
    assert len(b["b+"]) == 9
    assert len(b["b-"]) == 6 + 1 + 9 + 1 + 6


def test_strand_validation():
    with pytest.raises(ValueError):
        Braid(5, ((5, 1),))
    with pytest.raises(ValueError):
        Braid(1, ())
    with pytest.raises(StrandMismatchError):
        compose(Braid(3, ((1, 1),)), Braid(4, ((1, 1),)))
    with pytest.raises(StrandMismatchError):
        act(Braid(3, ()), Word.gen(D[1]), FIBER)


def reference_act(b, w, fiber):
    """The letter-by-letter action: rebuild the images and re-substitute w per letter."""
    syms = fiber.symbols
    for i, sign in b.letters:
        dk, dk1 = syms[i - 1], syms[i]
        if sign > 0:
            moved = {dk: Word.gen(dk1), dk1: Word.of([(dk1, -1), (dk, 1), (dk1, 1)])}
        else:
            moved = {dk: Word.of([(dk, 1), (dk1, 1), (dk, -1)]), dk1: Word.gen(dk)}
        images = {s: moved.get(s, Word.gen(s)) for s in {s for s, _ in w} | set(moved)}
        w = substitute(w, images)
    return w


def test_action_matches_letter_by_letter_reference():
    rng = random.Random(31)
    longest = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        fiber = Alphabet(GenSym("d", i) for i in range(1, n + 1))
        b = Braid(n, tuple((rng.randrange(1, n), rng.choice((1, -1)))
                           for _ in range(rng.randint(0, 40))))
        w = Word.of((fiber.symbols[rng.randrange(n)], rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 8)))
        image = act(b, w, fiber)
        assert image == reference_act(b, w, fiber), (b, w)
        longest = max(longest, len(image))
    assert longest > 1000  # long images, not only short ones


def test_paper_braid_actions_match_reference():
    words = [d(i) for i in range(1, 6)] + [d(1) * d(2) * d(3) * d(4) * d(5),
                                          d(4) * d(5), d(1) * d(3, -1)]
    for b in paper_braids().values():
        for beta in (b, b.inverse(), b * b):
            for w in words:
                assert act(beta, w, FIBER) == reference_act(beta, w, FIBER), (beta, w)


def test_pi_prime_action_words_match_reference(monkeypatch):
    # all 30 stabilizer and 5 conjugation words of Pi' come from the strand
    # images of its 7 braids, each built once
    calls = []

    def checked(beta, fiber):
        images = strand_images(beta, fiber)
        for i, sym in enumerate(fiber.symbols, 1):
            image = fiber.decode(images.get(i, (i,)))
            assert image == reference_act(beta, Word.gen(sym), fiber), (beta, sym)
            calls.append(image)
        return images

    monkeypatch.setattr(pipeline, "strand_images", checked)
    pipeline.pi_prime()
    assert len(calls) == 35
