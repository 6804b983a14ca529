"""The text grammar of words, braids and presentations.

Grammar::

    presentation := '<' SYM* '|' relations? '>'
    relations    := relation (',' relation)*
    relation     := product ('=' product)?          # u = v means u v^-1
    product      := factor+
    factor       := atom ("'" | '^' INT)*           # ' inverse, ^n power
    atom         := SYM | '1' | '(' product ')'     # 1 is the identity
    SYM          := letter (letter | digit | '_')*  # trailing digits = index
    INT          := '-'? digit+                     # letter, digit: ASCII only

Examples: ``d2' d1' d2 d1 d2``, ``(d1 d2)^6 (d2 d1)^-6``, ``A2^12 = 1``,
``< a b | a^4, b^4, a b a' b' >``; braid words use ``s1 s2' s4^12``.

Parentheses nested deeper than ``MAX_NESTING``, and words or presentations
that expand past ``MAX_LETTERS`` letters, are parse errors.  ``parse_int``
reads one INT alone, as the command line's numeric options are read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .presentation import Presentation
from .word_core import Alphabet, GenSym, Word

if TYPE_CHECKING:
    from .braid import Braid


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class _Token(NamedTuple):
    kind: str  # sym | int | punct | end
    text: str
    line: int
    column: int


# symbols and integers are ASCII only: str.isdigit and str.isalnum also accept
# other scripts' digits and superscripts, which int() reads as numbers or
# rejects with no line and column
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_WORD = _LETTERS | _DIGITS | {"_"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in _LETTERS:
            j = i
            while j < len(text) and text[j] in _WORD:
                j += 1
            tokens.append(_Token("sym", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _DIGITS or (c == "-" and i + 1 < len(text) and text[i + 1] in _DIGITS):
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in "<>|,=()'^":
            tokens.append(_Token("punct", c, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# Parse bounds: nesting far below the recursion limit, and words (and whole
# presentations) far longer than any real input (Pi' totals 12038 letters).
MAX_NESTING = 200
MAX_LETTERS = 1_000_000


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r} ", tok.line, tok.column)
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def bound(self, letters: int, tok: _Token) -> None:
        if letters > MAX_LETTERS:
            raise ParseError(f"input expands to more than {MAX_LETTERS} letters",
                             tok.line, tok.column)

    def product(self, stop: tuple[str, ...]) -> Word:
        """Factors are freely reduced, so letters cancel only where two meet."""
        letters: list[tuple[GenSym, int]] = []
        total = 0                        # letters before cancellation, for the bound
        saw = False
        while True:
            tok = self.peek()
            if tok.kind == "end" or (tok.kind == "punct" and tok.text in stop):
                break
            f = self.factor(stop).letters
            total += len(f)
            self.bound(total, tok)
            i = 0
            while i < len(f) and letters and letters[-1] == (f[i][0], -f[i][1]):
                letters.pop()
                i += 1
            letters.extend(f[i:])
            saw = True
        if not saw:
            self.fail("expected a word")
        return Word(tuple(letters))

    def factor(self, stop: tuple[str, ...]) -> Word:
        tok = self.next()
        if tok.kind == "sym":
            base = Word.gen(GenSym.parse(tok.text))
        elif tok.kind == "int" and tok.text == "1":
            base = Word.identity()
        elif tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok.line, tok.column)
            self.depth += 1
            base = self.product((")",))
            self.depth -= 1
            self.expect(")")
        else:
            raise ParseError(f"expected a symbol, found {tok.text!r}", tok.line, tok.column)
        while True:
            tok = self.peek()
            if tok.text == "'":
                self.next()
                base = base.inverse()
            elif tok.text == "^":
                self.next()
                exp = self.next()
                if exp.kind != "int":
                    raise ParseError("expected an integer exponent", exp.line, exp.column)
                n = int(exp.text)
                self.bound(len(base) * abs(n), exp)
                base = base ** n
            else:
                return base

    def relation(self, stop: tuple[str, ...]) -> Word:
        lhs = self.product(stop + ("=",))
        if self.peek().text == "=":
            self.next()
            rhs = self.product(stop)
            return lhs * rhs.inverse()
        return lhs

    def presentation(self) -> Presentation:
        self.expect("<")
        syms: list[GenSym] = []
        while self.peek().kind == "sym":
            syms.append(GenSym.parse(self.next().text))
        self.expect("|")
        alph = Alphabet(syms)
        relators: list[tuple[int, ...]] = []
        total = 0
        if self.peek().text != ">":
            while True:
                relators.append(alph.encode(self.relation((",", ">"))))
                total += len(relators[-1])
                self.bound(total, self.peek())
                if self.peek().text == ",":
                    self.next()
                else:
                    break
        self.expect(">")
        if self.peek().kind != "end":
            self.fail("trailing input after presentation")
        return Presentation.from_codes(alph, relators)


def parse_word(text: str, alphabet: Alphabet | None = None) -> Word:
    p = _Parser(text)
    w = p.relation(())
    if p.peek().kind != "end":
        p.fail("trailing input after word")
    if alphabet is not None:
        alphabet.encode(w)               # a foreign symbol is an AlphabetError
    return w


def parse_int(text: str) -> int:
    """The grammar's INT, spaces around it skipped: other scripts' digits and
    the underscores that int() also reads are parse errors."""
    s = text.strip()
    digits = s.removeprefix("-")
    if not digits or not _DIGITS.issuperset(digits):
        raise ParseError(f"expected an integer, found {text!r}", 1, 1)
    return int(s)


def parse_braid(text: str, n: int) -> Braid:
    from .braid import Braid  # loaded by act alone
    strand_alphabet = Alphabet(GenSym("s", i) for i in range(1, n))
    w = parse_word(text, strand_alphabet)
    return Braid(n, tuple((sym.index, sign) for sym, sign in w))


def parse_presentation(text: str) -> Presentation:
    return _Parser(text).presentation()
