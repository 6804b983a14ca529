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

``strand_images`` builds the int-word images of the strands a braid moves,
reading its letters right to left: if Psi acts as the suffix read so far,
the letter sigma_k before it gives d_h -> Psi((d_h) sigma_k), which rewrites
only d_k (to Psi(d_(k+1))) and d_(k+1) (to Psi(d_(k+1))^-1 Psi(d_k) Psi(d_(k+1))).
``act`` then substitutes w once, giving the letter-by-letter action's word.

No braid normal form is imposed; braids are only ever compared through
their actions.
"""

from __future__ import annotations

from typing import Iterable

from .word_core import Alphabet, Word, _iinv, _ireduce, _Record

BraidLetter = tuple[int, int]  # (Artin index i, sign)


class StrandMismatchError(ValueError):
    """Braids on different strand counts, or a fiber of the wrong size."""


class Braid(_Record):
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[BraidLetter, ...] = ()):
        if strands < 2:
            raise ValueError("need at least 2 strands")
        for i, sign in letters:
            if not 1 <= i <= strands - 1:
                raise ValueError(f"Artin index {i} out of range for {strands} strands")
            if sign not in (1, -1):
                raise ValueError("braid letter sign must be +-1")
        self._init(strands, letters)

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


def strand_images(b: Braid, fiber: Alphabet) -> dict[int, list[int]]:
    """Int-word images over ``fiber`` of the strands ``b`` moves, by strand
    (1-based); the other strands are fixed."""
    if len(fiber) != b.strands:
        raise StrandMismatchError(
            f"fiber alphabet has {len(fiber)} symbols for a {b.strands}-strand braid")
    images: dict[int, list[int]] = {}
    for i, sign in reversed(b.letters):
        x, y = images.get(i, [i]), images.get(i + 1, [i + 1])
        if sign > 0:
            images[i], images[i + 1] = y, _ireduce(_ireduce(list(_iinv(y)), x), y)
        else:
            images[i], images[i + 1] = _ireduce(_ireduce(list(x), y), _iinv(x)), x
    return images


def _iact(b: Braid, w: Iterable[int], fiber: Alphabet) -> list[int]:
    """``act`` on int words over ``fiber``."""
    images = strand_images(b, fiber)
    images.update({-l: _iinv(image) for l, image in list(images.items())})
    return _ireduce([], (x for l in w for x in images.get(l, (l,))))


def act(b: Braid, w: Word, fiber: Alphabet) -> Word:
    """Right action of ``b`` on ``w``, whose letters index the strands via ``fiber``."""
    return fiber.decode(_iact(b, fiber.encode(w), fiber))
