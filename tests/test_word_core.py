import os
import pickle
import random
import subprocess
import sys

import pytest

from braidpi.presentation import _icyc
from braidpi.word_core import (Alphabet, AlphabetError, GenSym, Word, _ireduce, alphabet,
                               format_word)
from .reference import MissingImageError, substitute

A, B, C = GenSym("a"), GenSym("b"), GenSym("c")
D1, D2, D4, D5 = (GenSym("d", i) for i in (1, 2, 4, 5))


def w(*letters):
    return Word.of(letters)


def test_reduce_cancellation():
    assert Word.of([(A, 1), (A, -1)]).is_identity()
    assert Word.of([(A, 1), (B, 1), (B, -1), (A, 1)]) == w((A, 1), (A, 1))
    assert Word.of([(A, 1), (B, -1), (A, -1)]) == w((A, 1), (B, -1), (A, -1))


def test_reduce_idempotent():
    rng = random.Random(10)
    syms = [A, B, C]
    for _ in range(2000):
        letters = [(rng.choice(syms), rng.choice((1, -1))) for _ in range(rng.randrange(12))]
        once = Word.of(letters)
        assert Word.of(once.letters) == once


def test_int_reducer_matches_the_symbolic_one():
    # _ireduce is the free reducer of int words, _icyc adds the cyclic trim
    rng = random.Random(12)
    alph = alphabet("a", "b", "c")
    for _ in range(2000):
        head = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randrange(8))]
        tail = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randrange(12))]
        out = list(alph.encode(alph.decode(head)))          # freely reduced
        expected = alph.decode(head) * alph.decode(tail)
        assert _ireduce(out, iter(tail)) is out and out == list(alph.encode(expected))
        assert _icyc(tail) == alph.encode(alph.decode(tail).cyclically_reduced())
        assert _icyc(head + tail) == alph.encode(expected.cyclically_reduced())


def test_multiply_examples():
    assert w((A, 1), (B, 1)) * w((B, -1), (C, 1)) == w((A, 1), (C, 1))
    assert w((A, 1)) * Word.identity() == w((A, 1))
    assert (w((D4, 1), (D5, 1)) * w((D5, 1), (D4, 1))
            == w((D4, 1), (D5, 1), (D5, 1), (D4, 1)))


def test_invert_examples():
    assert w((A, 1), (B, -1)).inverse() == w((B, 1), (A, -1))
    assert Word.identity().inverse().is_identity()
    assert w((D2, -1), (D1, 1), (D2, 1)).inverse() == w((D2, -1), (D1, -1), (D2, 1))


def test_free_group_axioms_random():
    rng = random.Random(11)
    syms = [A, B, C]

    def rand_word():
        return Word.of((rng.choice(syms), rng.choice((1, -1)))
                       for _ in range(rng.randrange(10)))

    for _ in range(10000):
        u, v, z = rand_word(), rand_word(), rand_word()
        assert (u * v) * z == u * (v * z)
        assert (u * u.inverse()).is_identity()
        assert u * Word.identity() == u == Word.identity() * u


def test_substitute_examples():
    images = {A: w((B, 1), (C, 1))}
    assert substitute(w((A, 1), (A, 1)), images) == w((B, 1), (C, 1), (B, 1), (C, 1))
    images = {A: Word.identity(), B: w((B, 1))}
    assert substitute(w((A, 1), (B, 1), (A, -1)), images) == w((B, 1))


def test_substitute_missing_image():
    with pytest.raises(MissingImageError):
        substitute(w((A, 1)), {B: w((B, 1))})


def test_substitute_is_homomorphism_random():
    rng = random.Random(12)
    syms = [A, B, C]

    def rand_word(k):
        return Word.of((rng.choice(syms), rng.choice((1, -1))) for _ in range(k))

    for _ in range(500):
        images = {s: rand_word(rng.randrange(5)) for s in syms}
        u = rand_word(rng.randrange(8))
        v = rand_word(rng.randrange(8))
        assert substitute(u * v, images) == substitute(u, images) * substitute(v, images)
        assert substitute(u.inverse(), images) == substitute(u, images).inverse()


def test_power_and_cyclic_reduction():
    word = w((A, 1), (B, 1))
    assert word ** 3 == w((A, 1), (B, 1), (A, 1), (B, 1), (A, 1), (B, 1))
    assert word ** -1 == word.inverse()
    assert word ** 0 == Word.identity()
    conj = w((C, 1)) * word * w((C, -1))
    assert conj.cyclically_reduced() == word
    # powers agree with repeated multiplication
    rng = random.Random(13)
    for _ in range(2000):
        u = Word.of((rng.choice([A, B, C]), rng.choice((1, -1))) for _ in range(rng.randrange(9)))
        n = rng.randrange(-5, 6)
        expected = Word.identity()
        for _ in range(abs(n)):
            expected = expected * (u if n > 0 else u.inverse())
        assert u ** n == expected, (u, n)


def test_gensym_parse_roundtrip():
    for text in ("d1", "G", "A2_0", "s_3", "x"):
        assert str(GenSym.parse(text)) == text
    assert GenSym.parse("d12") == GenSym("d", 12)
    with pytest.raises(ValueError):
        GenSym("d1")  # trailing digit belongs in the index
    with pytest.raises(ValueError):
        GenSym("")


def test_alphabet_order_and_encoding():
    alph = alphabet("d1", "d2", "G")
    assert alph.index(GenSym("d", 2)) == 1
    word = w((GenSym("G"), -1), (GenSym("d", 1), 1))
    assert alph.decode(alph.encode(word)) == word
    with pytest.raises(AlphabetError):
        alph.encode(w((A, 1)))
    with pytest.raises(AlphabetError):
        Alphabet([A, A])


def test_decode_reduces_freely():
    alph = alphabet("a", "b")
    assert alph.decode((1, -1, 2)) == Word.gen(B)
    assert alph.decode((2, 1, -1, -2, -1)) == Word.gen(A, -1)
    assert alph.decode((1, -1)).is_identity()


@pytest.mark.parametrize("code", [0, 3, -3, 6])
def test_decode_rejects_codes_outside_the_alphabet(code):
    # 0 once read as the last symbol's inverse, and 3 past the end as an IndexError
    with pytest.raises(AlphabetError, match=f"code {code} not in an alphabet of 2"):
        alphabet("a", "b").decode((1, code))


def test_exponent_sums():
    word = w((A, 1), (B, -1), (A, 1), (B, 1), (A, -1))
    assert word.exponent_sums() == {A: 1, B: 0}


def test_format_word():
    assert format_word(Word.identity()) == "1"
    assert format_word(w((A, 1), (A, 1), (A, 1))) == "a^3"
    assert format_word(w((A, 1), (B, -1))) == "a b'"
    assert format_word(w((A, -1), (A, -1))) == "a^-2"


_LOAD_IN_CHILD = """
import pickle, sys
from braidpi.word_core import Alphabet, GenSym
syms = pickle.loads(sys.stdin.buffer.read())
alph = Alphabet(syms)
assert [alph.index(GenSym("d", i)) for i in range(1, 4)] == [0, 1, 2]
assert alph.index(GenSym("G")) == 3
assert {s: True for s in syms}[GenSym("G")] and hash(syms[0]) == hash(("d", 1))
"""


def test_gensym_hash_is_the_dataclass_hash_and_survives_pickling():
    syms = [GenSym("d", i) for i in range(1, 4)] + [GenSym("G")]
    assert [hash(s) for s in syms] == [hash((s.name, s.index)) for s in syms]
    data = pickle.dumps(syms)
    # str hashes are salted per process: load the symbols under other seeds
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", _LOAD_IN_CHILD], input=data, env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
