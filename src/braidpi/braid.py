"""Artin braid groups and their right action on free groups.

The generator sigma_k acts on a free basis delta_1..delta_n by

    (delta_h) sigma_k = delta_h                                  h != k, k+1
    (delta_k) sigma_k = delta_{k+1}
    (delta_{k+1}) sigma_k = delta_{k+1}^-1 delta_k delta_{k+1}

and sigma_k^-1 acts by the inverse substitution

    (delta_k) sigma_k^-1 = delta_k delta_{k+1} delta_k^-1
    (delta_{k+1}) sigma_k^-1 = delta_k.

A braid word acts letter by letter, leftmost letter first, so that
``act(compose(b1, b2), w) == act(b2, act(b1, w))`` -- a right action, and
products written on paper left-to-right can be transcribed verbatim.

No braid normal form is imposed; braids are only ever compared through
their actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .word_core import Alphabet, GenSym, Word

BraidLetter = tuple[int, int]  # (Artin index i, sign)


class StrandMismatchError(ValueError):
    """Braids on different strand counts, or a fiber of the wrong size."""


@dataclass(frozen=True)
class Braid:
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[BraidLetter, ...] = ()

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError("need at least 2 strands")
        for i, sign in self.letters:
            if not 1 <= i <= self.strands - 1:
                raise ValueError(f"Artin index {i} out of range for {self.strands} strands")
            if sign not in (1, -1):
                raise ValueError("braid letter sign must be +-1")

    @staticmethod
    def identity(strands: int) -> "Braid":
        return Braid(strands)

    @staticmethod
    def gen(strands: int, i: int, sign: int = 1) -> "Braid":
        return Braid(strands, ((i, sign),))

    def __mul__(self, other: "Braid") -> "Braid":
        return compose(self, other)

    def inverse(self) -> "Braid":
        return Braid(self.strands, tuple((i, -s) for i, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "Braid":
        base = self if n >= 0 else self.inverse()
        return Braid(self.strands, base.letters * abs(n))

    def __len__(self) -> int:
        return len(self.letters)

    def act(self, w: Word, fiber: Alphabet) -> Word:
        return act(self, w, fiber)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"s{i}" + ("'" if s < 0 else "") for i, s in self.letters)


def compose(b1: Braid, b2: Braid) -> Braid:
    if b1.strands != b2.strands:
        raise StrandMismatchError(f"strand counts differ: {b1.strands} vs {b2.strands}")
    return Braid(b1.strands, b1.letters + b2.letters)


def _generator_images(fiber: tuple[GenSym, ...], i: int, sign: int) -> dict[GenSym, Word]:
    dk, dk1 = fiber[i - 1], fiber[i]
    if sign > 0:
        return {
            dk: Word.gen(dk1),
            dk1: Word.of([(dk1, -1), (dk, 1), (dk1, 1)]),
        }
    return {
        dk: Word.of([(dk, 1), (dk1, 1), (dk, -1)]),
        dk1: Word.gen(dk),
    }


def act(b: Braid, w: Word, fiber: Alphabet) -> Word:
    """Right action of ``b`` on ``w``, whose letters index the strands via ``fiber``."""
    if len(fiber) != b.strands:
        raise StrandMismatchError(
            f"fiber alphabet has {len(fiber)} symbols for a {b.strands}-strand braid")
    fiber.check_word(w)
    syms = fiber.symbols
    for i, sign in b.letters:
        moved = _generator_images(syms, i, sign)
        images = {s: moved.get(s, Word.gen(s)) for s in w.symbols() | set(moved)}
        w = w.substitute(images)
    return w
