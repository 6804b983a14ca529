"""The value types: equality within one class, hashing, immutability,
validation messages, the reprs the recorded digests read, and pickling."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from braidpi.analysis import AbelianInvariants
from braidpi.braid import Braid
from braidpi.curves import ProjPoint
from braidpi.tietze import TietzeLog, TietzeMove
from braidpi.word_core import Alphabet, GenSym, Word

A, B = GenSym("a"), GenSym("b")


def _logs():
    """A log of int moves, decoded when its moves are first read, and the same
    log built by hand."""
    codes = [("add-relator", (1, -2)), ("eliminate-generator", 2, (1,), (1, -2)),
             ("remove-relator", ())]
    ab = Word.of([(A, 1), (B, -1)])
    by_hand = [TietzeMove("add-relator", (ab,)),
               TietzeMove("eliminate-generator", (B, Word.gen(A), ab)),
               TietzeMove("remove-relator", (Word(),))]
    return TietzeLog.from_codes(Alphabet((A, B)), codes, True), TietzeLog(by_hand, True)


def _values():
    return [GenSym("d", 1), GenSym("G"), Word.of([(A, 1), (B, -1)]), Word(),
            Braid(5, ((1, 1), (4, -1))), ProjPoint.of(1, -1, 1), _logs()[0]]


def test_equality_holds_only_within_a_class():
    class Sym(GenSym):
        pass

    assert GenSym("d", 1) == GenSym("d", 1) != GenSym("d", 2)
    assert Sym("d", 1) == Sym("d", 1) and str(Sym("d", 1)) == "d1"
    assert Sym("d", 1) != GenSym("d", 1) and GenSym("d", 1) != Sym("d", 1)
    assert GenSym("a") != ("a", None)
    w = Word.of([(A, 1)])
    assert w == Word(((A, 1),)) and w != w.letters and Word() != ()
    assert Braid(3, ((1, 1),)) == Braid(3, ((1, 1),)) != Braid(4, ((1, 1),))
    assert Braid(3) != (3, ())
    assert TietzeLog() == TietzeLog([], False) != TietzeLog([], True)
    assert TietzeLog() != ([], False)
    lazy, by_hand = _logs()
    assert lazy == by_hand and by_hand == _logs()[0] != TietzeLog(by_hand.moves, False)


def test_hashing_is_the_tuple_of_fields():
    assert hash(GenSym("d", 1)) == hash(("d", 1)) and hash(GenSym("G")) == hash(("G", None))
    w = Word.of([(A, 1), (B, 1)])
    assert hash(w) == hash((w.letters,))
    assert hash(Braid(5, ((2, -1),))) == hash((5, ((2, -1),)))
    # equal by value, so one set entry
    assert len({GenSym("a"), GenSym("a"), Word(), Word(), Braid(2), Braid(2)}) == 3
    for log in (TietzeLog(), _logs()[0]):
        with pytest.raises(TypeError):
            hash(log)


def test_value_types_are_immutable():
    for value in _values():
        field = type(value).__slots__[0]
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1


@pytest.mark.parametrize("make,message", [
    (lambda: GenSym(""), "empty symbol name"),
    (lambda: GenSym("d1"), "symbol name 'd1' must not end in a digit"),
    (lambda: GenSym("d", -1), "negative symbol index"),
    (lambda: Braid(1), "need at least 2 strands"),
    (lambda: Braid(5, ((5, 1),)), "Artin index 5 out of range for 5 strands"),
    (lambda: Braid(5, ((0, 1),)), "Artin index 0 out of range for 5 strands"),
    (lambda: Braid(5, ((1, 2),)), "braid letter sign must be +-1"),
])
def test_validation_errors(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_constructors_normalize():
    assert all(type(c) is Fraction for c in ProjPoint.of(1, -2, 3).coords)
    assert Word().letters == () and Braid(3).letters == ()
    assert TietzeLog().moves == [] and TietzeLog().moves is not TietzeLog().moves


def test_reprs_read_by_the_recorded_digests():
    mv = TietzeMove("add-relator", (Word.of([(A, 1), (B, -1)]),))
    assert repr(mv) == """TietzeMove(kind='add-relator', payload=(Word("a b'"),))"""
    elim = TietzeMove("eliminate-generator", (GenSym("d", 2), Word.gen(A), Word()))
    assert repr(elim) == ("TietzeMove(kind='eliminate-generator', "
                          "payload=(GenSym('d2'), Word('a'), Word('1')))")
    assert repr(AbelianInvariants((4, 4), 0)) == "AbelianInvariants(torsion=(4, 4), free_rank=0)"
    assert repr(TietzeLog([mv], True)) == f"TietzeLog(moves=[{mv!r}], exhausted=True)"
    assert repr(_logs()[0]) == repr(_logs()[1])
    assert repr(Braid(3, ((1, -1),))) == "Braid(strands=3, letters=((1, -1),))"


def test_values_round_trip_through_pickle_and_copy():
    for value in _values():
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value
    sym = pickle.loads(pickle.dumps(GenSym("d", 3)))
    assert hash(sym) == hash(("d", 3)) and str(sym) == "d3"
    log = TietzeLog([TietzeMove("remove-relator", (Word(),))], True)
    assert pickle.loads(pickle.dumps(log)) == log
