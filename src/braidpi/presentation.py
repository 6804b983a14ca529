"""Finitely presented groups, and the one normalizer of their relators.

A ``Presentation`` keeps its relators in one store, ``codes``: int words in
the letters of its own alphabet (generator i is i, its inverse -i), freely
*and cyclically* reduced, with no duplicates up to rotation and inversion (two
such relators have the same normal closure, so they are one relator) and no
identity.  Words and codes pass one normalizer; ``relators`` decodes the codes
on each read, to print, to log or to trace.  A code means nothing outside its
alphabet: the Tietze result renumbers its codes into the symbols left.

Two relators equal up to rotation and inversion have the same length and sum of
|letters| (their fingerprint), so the canonical key (the least rotation of w or
w^-1, by Booth's algorithm) is computed only for relators whose fingerprint
another one has; the first occurrence is kept, here and in move (c) of
``tietze``.  ``CosetLimitExceeded``, which coset enumeration (``cosets``)
raises, is defined here because every command loads this module.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .word_core import Alphabet, AlphabetError, Word, _iinv, _ireduce

IntWord = tuple[int, ...]


class CosetLimitExceeded(RuntimeError):
    """Enumeration hit the coset budget: group possibly infinite, or budget too small."""


def _icyc(letters: Iterable[int]) -> IntWord:
    """Free, then cyclic reduction of an int word."""
    w = _ireduce([], letters)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return tuple(w[i:j])


def _least_rotation(s: IntWord) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm)."""
    n = len(s)
    s2 = s + s
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s2[j]
        i = f[j - k - 1]
        while i != -1 and sj != s2[k + i + 1]:
            if sj < s2[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s2[k + i + 1]:
            if sj < s2[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _canon_key(w: IntWord) -> IntWord:
    """Canonical representative of w under rotation and inversion."""
    if not w:
        return w
    i = _least_rotation(w)
    a = w[i:] + w[:i]
    iw = _iinv(w)
    j = _least_rotation(iw)
    b = iw[j:] + iw[:j]
    return a if a <= b else b


def _fingerprint(w: IntWord) -> tuple[int, int]:
    return len(w), sum(map(abs, w))


def _repeats(words: Sequence[IntWord], prints: Sequence[tuple[int, int]],
             key=_canon_key) -> set[int]:
    """Indices of the words equal up to rotation and inversion to an earlier
    one.  Such words share length and sum of |letters| (``prints``, their
    ``_fingerprint``s), so ``key`` runs only on words whose fingerprint another
    word has."""
    shared = {f for f, n in Counter(prints).items() if n > 1}
    first: dict[IntWord, int] = {}
    return {i for i, w in enumerate(words)
            if prints[i] in shared and first.setdefault(key(w), i) != i}


class Presentation:
    """Generator alphabet plus normalized relator list, kept as int codes in the
    alphabet's letters (``codes``); ``relators`` decodes them on each read."""

    def __init__(self, alphabet: Alphabet, relators: Iterable[Word]):
        self._normalize(alphabet, map(alphabet.encode, relators))

    @classmethod
    def from_codes(cls, alphabet: Alphabet, codes: Iterable[IntWord]) -> Presentation:
        """The presentation of int words over ``alphabet``, normalized as words are."""
        p = cls.__new__(cls)
        p._normalize(alphabet, codes)
        return p

    def _normalize(self, alphabet: Alphabet, codes: Iterable[IntWord]) -> None:
        """Cyclically reduce, drop the empty codes, then the repeats."""
        self.alphabet = alphabet
        kept = [c for c in map(_icyc, codes) if c]
        if not set().union(*kept) <= set(range(-len(alphabet), len(alphabet) + 1)) - {0}:
            raise AlphabetError(f"a code outside an alphabet of {len(alphabet)}")
        drop = _repeats(kept, list(map(_fingerprint, kept)))
        self.codes: tuple[IntWord, ...] = tuple(c for i, c in enumerate(kept) if i not in drop)

    @property
    def relators(self) -> tuple[Word, ...]:
        return tuple(map(self.alphabet.decode, self.codes))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Presentation)
                and self.alphabet == other.alphabet
                and self.codes == other.codes)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.codes))

    def total_length(self) -> int:
        return sum(map(len, self.codes))

    def __str__(self) -> str:
        gens = " ".join(str(s) for s in self.alphabet)
        rels = ", ".join(str(r) for r in self.relators)
        return f"< {gens} | {rels} >"

    def __repr__(self) -> str:
        return (f"Presentation({len(self.alphabet)} generators, "
                f"{len(self.codes)} relators, total length {self.total_length()})")


def add_relators(p: Presentation, ws: Iterable[Word]) -> Presentation:
    return Presentation.from_codes(p.alphabet, p.codes + tuple(map(p.alphabet.encode, ws)))
