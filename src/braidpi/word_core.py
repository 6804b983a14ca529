"""Free-group word algebra: symbols, alphabets, and freely reduced words.

Conventions
-----------
A word is a sequence of letters (symbol, sign) with sign in {+1, -1},
kept *freely reduced* at all times: no adjacent (g,+1)(g,-1) or
(g,-1)(g,+1).  The empty word is the identity.  Because every operation
re-reduces eagerly, two words are equal in the free group iff they are
structurally equal, which is what all downstream equality checks rely on.

Symbols render as ``name`` + optional ``index`` (``GenSym("d", 1)`` is
``d1``); parsing splits a maximal trailing run of digits back into the
index, so rendering round-trips.  Exponents are not run-length compressed
in the data; ``format_word`` may compress for display only.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, Sequence


class AlphabetError(ValueError):
    """Duplicate symbol in an alphabet, or a word using a foreign symbol."""


class _Record:
    """Base of the immutable value types.  The fields are the ``__slots__``, set
    once by ``_init``; a record is equal only to one of its own class with equal
    fields, hashes as the tuple of its fields, and pickles through ``__init__``."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class GenSym(_Record):
    """A generator symbol: a short name plus an optional subscript."""

    __slots__ = ("name", "index", "_hash")

    def __init__(self, name: str, index: int | None = None):
        if not name:
            raise ValueError("empty symbol name")
        if name[-1].isdigit():
            # trailing digits belong in the index so that str() round-trips
            raise ValueError(f"symbol name {name!r} must not end in a digit")
        if index is not None and index < 0:
            raise ValueError("negative symbol index")
        # hash((name, index)), computed once: symbols key every hot dict
        self._init(name, index, hash((name, index)))

    def __eq__(self, other) -> bool:   # hot: dict lookups with an equal key
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.index == other.index

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes differ between processes, so never pickle _hash
        return GenSym, (self.name, self.index)

    @staticmethod
    def parse(token: str) -> "GenSym":
        """Inverse of ``str``: split a maximal trailing run of ASCII digits into the index."""
        i = len(token)
        while i > 0 and "0" <= token[i - 1] <= "9":
            i -= 1
        if i == len(token):
            return GenSym(token)
        return GenSym(token[:i], int(token[i:]))

    def __str__(self) -> str:
        return self.name if self.index is None else f"{self.name}{self.index}"

    def __repr__(self) -> str:
        return f"GenSym({str(self)!r})"


Letter = tuple[GenSym, int]


def _reduce_into(out: list[Letter], letters: Iterable[Letter]) -> list[Letter]:
    for sym, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {sign}")
        if out and out[-1][1] == -sign and out[-1][0] == sym:
            out.pop()
        else:
            out.append((sym, sign))
    return out


def _iinv(w: Sequence[int]) -> tuple[int, ...]:
    return tuple(-l for l in reversed(w))


def _ireduce(out: list[int], letters: Iterable[int]) -> list[int]:
    """Append int letters to the freely reduced ``out``, cancelling as they come:
    the one free reducer of int words, as ``_reduce_into`` is of symbolic ones."""
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return out


class Word(_Record):
    """A freely reduced word; build with ``Word.of`` (which reduces)."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        self._init(letters)

    @staticmethod
    def of(letters: Iterable[Letter]) -> "Word":
        return Word(tuple(_reduce_into([], letters)))

    @staticmethod
    def identity() -> "Word":
        return Word()

    @staticmethod
    def gen(sym: GenSym, sign: int = 1) -> "Word":
        return Word.of([(sym, sign)])

    def __mul__(self, other: "Word") -> "Word":
        out = list(self.letters)
        return Word(tuple(_reduce_into(out, other.letters)))

    def inverse(self) -> "Word":
        return Word(tuple((s, -e) for s, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        # base = u c u^-1 with c cyclically reduced, so base^n = u c^n u^-1
        base = self if n >= 0 else self.inverse()
        core = base.cyclically_reduced()
        if n == 0 or not core:
            return Word()
        k = (len(base) - len(core)) // 2
        ls = base.letters
        return Word(ls[:k] + core.letters * abs(n) + ls[len(ls) - k:])

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def cyclically_reduced(self) -> "Word":
        ls = self.letters
        i, j = 0, len(ls)
        while j - i >= 2 and ls[i][0] == ls[j - 1][0] and ls[i][1] == -ls[j - 1][1]:
            i += 1
            j -= 1
        return Word(ls[i:j])

    def exponent_sums(self) -> dict[GenSym, int]:
        sums: dict[GenSym, int] = {}
        for s, e in self.letters:
            sums[s] = sums.get(s, 0) + e
        return sums

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


class Alphabet:
    """An ordered, duplicate-free sequence of symbols.

    The order is significant: it fixes relation-matrix columns, braid
    strand indices, and every deterministic tie-break in the package.
    ``encode``/``decode`` translate words to signed 1-based integers for
    the hot loops (coset enumeration, relator rewriting).
    """

    def __init__(self, symbols: Iterable[GenSym]):
        self.symbols: tuple[GenSym, ...] = tuple(symbols)
        self._pos: dict[GenSym, int] = {}
        self._letters: dict[int, Letter] = {}     # code -> letter, for decode
        for i, s in enumerate(self.symbols):
            if s in self._pos:
                raise AlphabetError(f"duplicate symbol {s}")
            self._pos[s] = i
            self._letters[i + 1], self._letters[-i - 1] = (s, 1), (s, -1)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[GenSym]:
        return iter(self.symbols)

    def __contains__(self, sym: GenSym) -> bool:
        return sym in self._pos

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def index(self, sym: GenSym) -> int:
        try:
            return self._pos[sym]
        except KeyError:
            raise AlphabetError(f"symbol {sym} not in alphabet") from None

    def encode(self, w: Word) -> tuple[int, ...]:
        pos = self._pos
        try:
            return tuple((pos[s] + 1) * e for s, e in w.letters)
        except KeyError as exc:
            raise AlphabetError(f"word uses foreign symbol {exc.args[0]}") from None

    def decode(self, ints: Iterable[int]) -> Word:
        letters = self._letters
        try:
            return Word.of(letters[i] for i in ints)
        except KeyError as exc:
            raise AlphabetError(f"code {exc.args[0]} not in an alphabet of {len(self)}") from None

    def __repr__(self) -> str:
        return f"Alphabet([{', '.join(str(s) for s in self.symbols)}])"


def alphabet(*names: str) -> Alphabet:
    """Convenience: ``alphabet("d1", "d2", "G")``."""
    return Alphabet(GenSym.parse(n) for n in names)


def format_word(w: Word) -> str:
    """Render a word; ``'`` marks inverses, ``^n`` compresses runs for display."""
    parts: list[str] = []
    for (sym, sign), run in groupby(w.letters):
        n = len(list(run))
        parts.append(f"{sym}^{n * sign}" if n > 1 else f"{sym}'" if sign < 0 else str(sym))
    return " ".join(parts) or "1"
