import random

import pytest

from braidpi.analysis import abelian_invariants
from braidpi.braid import Braid, act
from braidpi.cosets import todd_coxeter
from braidpi.pipeline import _monodromy_codes, fiber_alphabet, paper_braids
from braidpi.pipeline import full_alphabet, pi_prime
from braidpi.presentation import Presentation, _canon_key, _icyc, _iinv, add_relators
from braidpi.tietze import _Simplifier, tietze_simplify
from braidpi.word_core import Alphabet, AlphabetError, GenSym, Word, alphabet

from .reference import canon_key, first_occurrences, substitute

A, B, C = GenSym("a"), GenSym("b"), GenSym("c")
D = [None] + [GenSym("d", i) for i in range(1, 6)]
G = GenSym("G")


def word(*pairs):
    return Word.of(pairs)


def test_normalization_drops_trivial_and_duplicates():
    alph = alphabet("a", "b")
    p = Presentation(alph, [
        Word.identity(),
        word((A, 1), (B, 1)),
        word((B, 1), (A, 1)),                     # rotation of the previous
        word((B, -1), (A, -1)),                   # its inverse
        word((A, 1), (A, -1)),                    # identity after reduction
        word((B, 1), (A, 1), (B, 1), (B, -1)),    # reduces to a rotation again
    ])
    assert p.relators == (word((A, 1), (B, 1)),)


def _planted_words(rng):
    """Cyclically reduced words, with rotations and inversions of earlier ones,
    exact copies, and words of an earlier one's length and sum of |letters|:
    its letters shuffled, or some of them inverted."""
    ngens = rng.randint(1, 4)
    words = []
    for _ in range(rng.randint(1, 10)):
        kind = rng.random()
        if words and kind < 0.6:
            w = rng.choice(words)
            i = rng.randrange(len(w))
            w = w[i:] + w[:i]
            if kind < 0.15:
                w = _iinv(w)
            elif kind < 0.35:
                w = tuple(rng.sample(w, len(w)))
            elif kind < 0.45:
                w = tuple(l if rng.random() < 0.5 else -l for l in w)
        else:
            w = tuple(rng.choice((1, -1)) * rng.randint(1, ngens)
                      for _ in range(rng.randint(1, 8)))
        w = _icyc(w)
        if w:
            words.append(w)
    return Alphabet(GenSym("x", i) for i in range(1, ngens + 1)), words


def _unreduced(rng, w, n):
    """w conjugated by a letter, or with a cancelling pair put in: ``_icyc``
    gives w back."""
    x = rng.choice((1, -1)) * rng.randint(1, n)
    if x in (-w[0], w[-1]):
        i = rng.randrange(len(w) + 1)
        return w[:i] + (x, -x) + w[i:]
    return (x,) + w + (-x,)


def test_dedupe_matches_reference():
    # the fingerprint buckets keep what a plain set of canonical keys keeps,
    # in the same order, first occurrence first, in Presentation and in the
    # engine's normalization, which removes the rest in order; words and codes
    # (here not reduced, an identity among them) share one normalizer
    rng = random.Random(2026)
    repeats = lookalikes = 0
    for _ in range(3000):
        alph, words = _planted_words(rng)
        kept = first_occurrences(words)
        p = Presentation(alph, [alph.decode(w) for w in words])
        assert p.relators == tuple(alph.decode(words[i]) for i in kept), words
        assert p.codes == tuple(words[i] for i in kept)
        q = Presentation.from_codes(alph, [_unreduced(rng, w, len(alph)) for w in words] + [()])
        assert q == p and hash(q) == hash(p) and q.relators == p.relators, words
        sim = _Simplifier(Presentation(alph, []), 10**6, frozenset())
        sim.state.rels = list(words) + [()]
        sim.normalize()
        removed = [w for i, w in enumerate(words) if i not in kept] + [()]
        assert sim.moves == [("remove-relator", w) for w in removed], words
        repeats += len(words) - len(kept)
        keys = [canon_key(w) for w in words]
        assert keys == [_canon_key(w) for w in words]
        prints = {}
        for w, key in zip(words, keys):
            prints.setdefault((len(w), sum(map(abs, w))), set()).add(key)
        lookalikes += sum(len(ks) > 1 for ks in prints.values())
    assert repeats > 5000 and lookalikes > 400


def test_simplify_decodes_each_word_once(monkeypatch):
    # Pi' is built on int codes and kept as codes, with no word decoded; the
    # engine emits int moves and simplifies without decoding a word; its log
    # decodes each distinct word once, on the first read of its moves, and
    # the start relators and the result not at all
    calls = []
    real = Alphabet.decode

    def counting(self, ints):
        calls.append(ints)
        return real(self, ints)

    monkeypatch.setattr(Alphabet, "decode", counting)
    p = pi_prime()
    assert calls == [] and len(p.codes) == 31
    tietze_simplify(p, protect=full_alphabet())
    assert calls == []
    q, log = tietze_simplify(p)
    assert calls == []
    words = [{w for mv in log.moves for w in mv.payload if isinstance(w, Word)} for _ in range(2)]
    assert len(log.moves) > 100 and words[0] == words[1]
    assert len(calls) == len(words[0]), (len(calls), len(words[0]))
    assert log.replay(p) == q


def test_relators_cyclically_reduced():
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((B, 1), (A, 1), (A, 1), (B, -1))])
    assert p.relators == (word((A, 1), (A, 1)),)


def test_foreign_symbol_rejected():
    with pytest.raises(AlphabetError):
        Presentation(alphabet("a"), [word((B, 1))])
    for code in ((1, 2), (-2,), (0, 1)):       # codes are read only in their alphabet
        with pytest.raises(AlphabetError):
            Presentation.from_codes(alphabet("a"), [(1,), code])


def _conjugation(fiber, gamma, beta):
    """The relators gamma d gamma^-1 ((d) beta)^-1 of ``_monodromy_codes``."""
    alph = Alphabet(fiber.symbols + (gamma,))
    return Presentation.from_codes(alph, _monodromy_codes(fiber, beta, len(fiber) + 1))


def test_monodromy_relators_identity_braid():
    fiber = fiber_alphabet()
    p = _conjugation(fiber, G, Braid.identity(5))
    assert p == _symbolic_monodromy(fiber, G, [], Braid.identity(5))[2]
    assert len(p.alphabet) == 6
    # relators are the commutators [G, d_i]; abelianization free of rank 6
    inv = abelian_invariants(p)
    assert inv.free_rank == len(fiber) + 1 and not inv.torsion


def test_monodromy_relators_b0():
    fiber = fiber_alphabet()
    g0 = GenSym("g", 0)
    p = _conjugation(fiber, g0, paper_braids()["b0"])
    image = word((D[3], -1), (D[2], 1), (D[3], 1))  # (d2) b0 computed by hand
    expected = (word((g0, 1), (D[2], 1), (g0, -1)) * image.inverse()).cyclically_reduced()
    assert any(r == expected for r in p.relators)


def _stabilizer(fiber, braids):
    """The nonempty relators d_i^-1 (d_i) beta of ``_monodromy_codes``, as words."""
    return [fiber.decode(c) for beta in braids for c in _monodromy_codes(fiber, beta) if c]


def test_stabilizer_relators_examples():
    fiber = fiber_alphabet()
    assert _stabilizer(fiber, [Braid.identity(5)]) == []
    rels = _stabilizer(fiber, [paper_braids()["b+"]])
    assert rels, "b+ stabilizer relations are nonempty"
    # stabilizer relators are commutator-like: zero total exponent sum
    for braid in paper_braids().values():
        for r in _stabilizer(fiber, [braid]):
            assert sum(r.exponent_sums().values()) == 0
        assert _stabilizer(fiber, [braid]) == [w for w in _symbolic_monodromy(
            fiber, G, [braid], Braid.identity(5))[0] if w]


def _symbolic_monodromy(fiber, gamma, stabilizing, conjugating):
    """Stabilizer, then conjugation relators built in symbolic words from the
    braid action, and the presentation they give."""
    g = Word.gen(gamma)
    stab = [(Word.gen(d, -1) * act(beta, Word.gen(d), fiber)).cyclically_reduced()
            for beta in stabilizing for d in fiber]
    conj = [g * Word.gen(d) * g.inverse() * act(conjugating, Word.gen(d), fiber).inverse()
            for d in fiber]
    return stab, conj, Presentation(Alphabet(fiber.symbols + (gamma,)), stab + conj)


def test_monodromy_codes_match_symbolic_relators():
    # Pi' and its relator codes are built from the strand images; they must be
    # the symbolic construction's relators, in its order, with its encodings
    fiber = fiber_alphabet()
    beta = paper_braids()
    b1 = beta["b1"]
    stabilizing = [beta["b0"], beta["b-"], beta["b+"]]
    stabilizing += [b1 * b * b1.inverse() for b in stabilizing]
    _, _, expected = _symbolic_monodromy(fiber, G, stabilizing, b1 * b1)
    p = pi_prime()
    assert (p.alphabet, p.relators) == (expected.alphabet, expected.relators)
    assert p.codes == expected.codes
    assert len(p.relators) == 31 and p.total_length() == 12038
    rng = random.Random(55)
    fixing = dropped = 0
    for _ in range(150):
        braids = []
        for _ in range(rng.randint(0, 4)):
            top = rng.randint(1, 4)          # below 4, the braid fixes d5 (and more)
            braids.append(Braid(5, tuple((rng.randint(1, top), rng.choice((1, -1)))
                                         for _ in range(rng.randint(0, 12)))))
        braids += rng.sample(braids, rng.randint(0, len(braids)))   # repeated braids
        conjugating = Braid(5, tuple((rng.randint(1, 4), rng.choice((1, -1)))
                                     for _ in range(rng.randint(0, 8))))
        stab, conj, sym = _symbolic_monodromy(fiber, G, braids, conjugating)
        assert _stabilizer(fiber, braids) == [w for w in stab if w]
        conj_codes = _monodromy_codes(fiber, conjugating, len(fiber) + 1)
        assert [sym.alphabet.decode(c) for c in conj_codes] == conj
        codes = [c for b in braids for c in _monodromy_codes(fiber, b)] + conj_codes
        ints = Presentation.from_codes(sym.alphabet, codes)
        assert (ints.alphabet, ints.relators) == (sym.alphabet, sym.relators)
        assert ints.codes == sym.codes
        fixing += any(not w for w in stab)
        dropped += len(sym.relators) < sum(1 for w in stab + conj if w)
    assert fixing > 50 and dropped > 50


def test_add_relators():
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1), (A, 1))])
    q = add_relators(p, [word((B, 1), (B, 1)), Word.identity()])
    assert len(q.relators) == 2
    with pytest.raises(AlphabetError):
        add_relators(p, [word((GenSym("z"), 1))])


def test_tietze_eliminates_redundant_generator():
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1), (B, -1))])
    q, log = tietze_simplify(p)
    assert len(q.alphabet) == 1
    assert q.relators == ()
    assert log.replay(p) == q


def test_tietze_respects_protect():
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1), (B, -1))])
    q, _ = tietze_simplify(p, protect=[A, B])
    assert len(q.alphabet) == 2


def test_tietze_preserves_group_data():
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1), (B, 1), (A, 1), (B, -1)), word((B, 1)) ** 4])
    q, log = tietze_simplify(p)
    assert abelian_invariants(q) == abelian_invariants(p)
    assert q.total_length() <= p.total_length()
    assert log.replay(p) == q


def test_tietze_preserves_order_finite():
    # dihedral group of order 8 with a redundant generator glued in
    alph = alphabet("a", "b", "c")
    p = Presentation(alph, [
        word((A, 1)) ** 2, word((B, 1)) ** 2, (word((A, 1)) * word((B, 1))) ** 4,
        word((C, 1)) * (word((A, 1)) * word((B, 1))).inverse(),
    ])
    q, log = tietze_simplify(p)
    assert todd_coxeter(p).order == todd_coxeter(q).order == 8
    assert abelian_invariants(p) == abelian_invariants(q)
    assert log.replay(p) == q


C = GenSym("c")


def test_tietze_deterministic():
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1), (B, 1), (A, 1), (B, -1)), word((B, 1)) ** 4])
    q1, log1 = tietze_simplify(p)
    q2, log2 = tietze_simplify(p)
    assert q1 == q2 and log1.moves == log2.moves


def test_tietze_budget_returns_state():
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1), (B, 1), (A, 1), (B, -1)), word((B, 1)) ** 4])
    q, log = tietze_simplify(p, budget=1)
    assert abelian_invariants(q) == abelian_invariants(p)
    with pytest.raises(ValueError):
        tietze_simplify(p, budget=0)


def test_tietze_budget_exhaustion_is_flagged():
    alph = alphabet("a", "b", "c")
    p = Presentation(alph, [word((A, 1)) ** 2, word((B, 1)) ** 2,
                            word((A, 1), (B, 1)) ** 3, word((C, 1), (A, -1), (B, 1))])
    q, log = tietze_simplify(p, budget=3)
    assert log.exhausted and len(log.moves) <= 3
    q, log = tietze_simplify(p)
    assert not log.exhausted and len(q.alphabet) < 3


def test_tietze_log_rewrite_maps_to_target_alphabet():
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1), (B, -1))])
    q, log = tietze_simplify(p)
    kept = q.alphabet.symbols[0]
    image = word((A, 1), (B, 1))
    # substitute each eliminated generator's expression, in log order
    for mv in log.moves:
        if mv.kind == "eliminate-generator":
            g, expr = mv.payload[:2]
            image = substitute(image, {s: expr if s == g else Word.gen(s) for s, _ in image})
    assert image == Word.gen(kept) ** 2


def test_unsound_cut_regression():
    # {a a b, a b b} presents Z/3; an early version rewrote one relator
    # against a stale copy of the other and produced Z
    alph = alphabet("a", "b")
    p = Presentation(alph, [word((A, 1), (A, 1), (B, 1)), word((A, 1), (B, 1), (B, 1))])
    q, log = tietze_simplify(p)
    assert abelian_invariants(q) == abelian_invariants(p)
    assert abelian_invariants(q).torsion == (3,)
    assert log.replay(p) == q


def test_random_tietze_soundness():
    rng = random.Random(31)
    syms = [A, B, C]
    alph = Alphabet(syms)
    for _ in range(60):
        rels = []
        for _ in range(rng.randrange(1, 5)):
            rels.append(Word.of((rng.choice(syms), rng.choice((1, -1)))
                                for _ in range(rng.randrange(1, 10))))
        p = Presentation(alph, rels)
        q, log = tietze_simplify(p)
        assert abelian_invariants(q) == abelian_invariants(p)
        assert log.replay(p) == q
        assert q.total_length() <= p.total_length()


def test_tietze_on_decoded_unreduced_words():
    # decode must reduce: an unreduced Word broke the simplifier's relator list
    rng = random.Random(41)
    alph = alphabet("a", "b")
    for _ in range(40):
        rels = []
        for _ in range(rng.randrange(1, 4)):
            ints = []
            for _ in range(rng.randrange(1, 8)):
                l = rng.choice((1, -1, 2, -2))
                ints += [l, -l, l] if rng.random() < 0.3 else [l]
            rels.append(alph.decode(ints))
        p = Presentation(alph, rels)
        q, log = tietze_simplify(p)
        assert log.replay(p) == q
        assert abelian_invariants(q) == abelian_invariants(p)
