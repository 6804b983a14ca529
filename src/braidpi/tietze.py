"""Tietze simplification of a ``Presentation``, logged move by move.

``tietze_simplify`` applies the classical moves:

  (a) eliminate a generator occurring exactly once in some relator
      (shortest such relator first, ties by alphabet order),
  (b) shorten relators by rewriting common substrings against other
      relators: if a cyclic variant of s factors as p q with |p| > |q|
      and p occurs cyclically in r, rewrite r with p replaced by q^-1,
  (c) drop duplicates / rotations / inversions, as ``Presentation`` does.

With ``eliminate_short``, (a) first runs alone while its relator has at most
``_SHORT_DEFINING`` = 3 letters, each elimination followed by (c): the
substituted word has at most 2 letters, and no rewriting round runs between
such eliminations (the input still counts as a best state).  The phase is
asked for per stage: on every stage, no bound tried kept every final group of
the pipeline as short, so ``pipeline`` uses it on the orbifold stage alone.

Moves are coded in the int letters of the input alphabet: ("add-relator", w),
("remove-relator", w) and ("eliminate-generator", g, expr, defining).  The
engine, the result (its last state, or the kept moves applied again to the
input if the best state came earlier) and ``TietzeLog.replay`` (which encodes
each logged ``TietzeMove`` once) change state only through one routine,
``_TietzeState.apply``, so the log replays to the result exactly and the output
presents an isomorphic group by construction.  ``tietze_simplify`` decodes no
word: its log keeps the int moves and decodes them on the first read of
``moves``, each distinct word once.  A rewrite in (b) is strictly shorter (each
arc gains |p| - |q| > 0 letters) and adds the new value before it removes the
old: in a round the relator list is the multiset of the slots' current values.
The substring search in (b) reads the first L + |s| - 1 letters of r + r
(L = |r|: a later match repeats one ending L letters earlier) and needs, at
each end, the longest match in T = s + s, s^-1 + s^-1 (never across the halves)
and its first place in T.  A reducer of n letters has h = floor(n/2) + 1 (the
shortest match with 2 |match| > n) and stride k = max(1, floor(n/8)); its
pieces are the windows of h - k + 1 letters that start at 0, k, 2k, ... < n in
each half.  A match of h letters or more holds a piece that starts fewer than k
letters after it does, so s is tested against r only if a piece occurs in r + r
(below 16 letters the stride is 1, and the test passes exactly when a match
exists).  Each place of a piece in r + r and each of its places in T, taken
within one period p of the primitive root of s in each half, fix a cyclic
diagonal, keyed by half and offset mod p, with a maximal run of agreeing
letters, read cyclically in the half.  A pair is left out when the pair q
letters before it is one too, q the piece's least period: both lie in one run,
so a reducer that nearly repeats a short word keeps about one anchor per place
rather than one per place in r + r and in T.  A run of h letters or more is
found from its first anchor, at most k - 1 letters after its start; below 16
letters that anchor is at its start (k = 1: every window is a piece, and a pair
left out has an agreeing letter before it), so a run is taken, forward only,
from each anchor whose letter before disagrees on its diagonal.  The longest
match ending at i then starts at the least start of the runs through i, and it
first occurs in T at the least place (below p in its half) among the runs from
there.  The candidates are taken greedily in key order (|s| - 2 |match|, start
in r, reducer, |match|, end), each unless it meets a letter taken before, from
a queue of the at most two families of each run's matches (``_collect_arcs``):
exactly the arcs of a sort of all the candidates, at a cost per run, not per end.

A reducer s is generated lazily: no key of s is below -|s|, so its runs and
families are built only when the queue's least key reaches -|s|, and then over
the target masked, each letter taken so far replaced by a sentinel that
matches nothing.  By then the longer reducers' whole matches hold most of the
letters a short reducer's runs lie in (on Pi' the first scan of its longest
relator builds 58 runs rather than 1,527, for the same 11 arcs).  The arcs stay
exactly those of the sort of all candidates.  Taken letters only grow, so a
candidate that meets them would be passed over when its turn came; one that
survives lies in untaken letters and holds a piece there, so its run is found
in the masked target too.  A masked run reports whether its start is its true
start: whether the letter before it, read in the unmasked target, disagrees on
its diagonal.  One that is not live began in a taken letter, so every partial
match from its true start meets that letter: it keeps only its reach (the ends
it owns, as the longest matches ending there) and its whole family, and it
sorts before the live runs with its masked start, as its true start is less.
Each relator value has one record per call (encodings, pieces and their
places, period, fingerprint, canonical key), and a target value that came up
empty is next tested only against the reducers that entered the list since and
the owner it left out.  Encodings read one letter table per call.
All iteration orders are fixed, so results are deterministic for a given
budget.
"""

from __future__ import annotations

from bisect import insort
from functools import cache
from typing import Iterable, NamedTuple, Sequence

from .presentation import IntWord, Presentation, _canon_key, _fingerprint, _icyc, _repeats
from .word_core import Alphabet, GenSym, _iinv, _Record

_SHORT_DEFINING = 3  # the longest defining relator of the elimination phase
_OFS = 0x20  # encoded letters are printable; even, so ord ^ 1 swaps l's char and -l's
_MASK = "\0"  # stands for a taken letter in a scan's masked target: no letter's char


def _chars(letters: Iterable[int]) -> dict[int, str]:
    """The letter -> char table of ``_enc`` for ``letters``."""
    return {l: chr(_OFS + 2 * abs(l) + (l < 0)) for l in letters}


def _enc(w: IntWord, chars: dict[int, str] | None = None) -> str:
    """w as a string, read from a table ``chars`` that holds its letters
    (by default the table of w's own letters)."""
    return "".join(map((chars or _chars(set(w))).__getitem__, w))


# ---------------------------------------------------------------------------
# Tietze moves: one application routine shared by the engine and replay

class TietzeMove(NamedTuple):
    kind: str  # add-relator | remove-relator | eliminate-generator
    payload: tuple


IntMove = tuple  # a move in int letters of the input alphabet (module docstring)


class _TietzeState:
    """Mutable (alphabet, relator list), from p and ``moves``, that only changes
    via apply(), which takes int-coded moves."""

    def __init__(self, p: Presentation, moves: Iterable[IntMove] = ()):
        self.source = p.alphabet  # int codes stay relative to the source alphabet
        self.symbols: list[GenSym] = list(p.alphabet.symbols)
        # already distinct up to rotation and inversion (Presentation._normalize)
        self.rels: list[IntWord] = list(p.codes)
        for mv in moves:
            self.apply(mv)

    def apply(self, move: IntMove) -> None:
        kind = move[0]
        if kind == "add-relator":
            self.rels.append(move[1])
        elif kind == "remove-relator":
            self.rels.remove(move[1])
        elif kind == "eliminate-generator":
            _, g, expr, defining = move
            self.rels.remove(defining)
            images = {g: expr, -g: _iinv(expr)}
            # stored relators are cyclically reduced, so only those holding +-g change
            self.rels = [w for w in (_icyc(x for l in r for x in images.get(l, (l,)))
                                     if g in r or -g in r else r for r in self.rels) if w]
            self.symbols.remove(self.source.symbols[g - 1])
        else:
            raise ValueError(f"unknown move kind {kind}")

    def presentation(self) -> Presentation:
        """The relators renumbered into the alphabet of the symbols left."""
        at = {self.source.index(s) + 1: i for i, s in enumerate(self.symbols, 1)}
        at.update({-g: -i for g, i in at.items()})
        return Presentation.from_codes(Alphabet(self.symbols),
                                       [tuple(map(at.__getitem__, r)) for r in self.rels])


class _Pending(_Record):
    __slots__ = ("_codes",)              # (alphabet, int moves) of a log not yet decoded


class TietzeLog(_Pending):
    __slots__ = ("moves", "exhausted")  # exhausted: the move budget ran out first

    def __init__(self, moves: list[TietzeMove] | None = None, exhausted: bool = False):
        self._init([] if moves is None else moves, exhausted)

    @classmethod
    def from_codes(cls, alphabet: Alphabet, moves: list[IntMove], exhausted: bool) -> TietzeLog:
        """The log of int moves over ``alphabet``, decoded when ``moves`` is first read."""
        log = cls.__new__(cls)
        object.__setattr__(log, "_codes", (alphabet, moves))
        object.__setattr__(log, "exhausted", exhausted)
        return log

    def __getattr__(self, name: str):
        if name != "moves":
            raise AttributeError(name)
        alphabet, moves = self._codes
        word = cache(alphabet.decode)
        object.__setattr__(self, "moves", [TietzeMove(mv[0], (
            alphabet.symbols[mv[1] - 1], word(mv[2]), word(mv[3]))
            if mv[0] == "eliminate-generator" else (word(mv[1]),)) for mv in moves])
        return self.moves

    def replay(self, p: Presentation) -> Presentation:
        """Re-apply the recorded moves to ``p``, reproducing the target: each is
        encoded once and applied as the engine applies its own."""
        code = p.alphabet.encode
        return _TietzeState(p, [
            (kind, p.alphabet.index(payload[0]) + 1, code(payload[1]), _icyc(code(payload[2])))
            if kind == "eliminate-generator" else (kind, _icyc(code(payload[0])))
            for kind, payload in self.moves]).presentation()


# ---------------------------------------------------------------------------
# the common-substring search: pieces, places and cyclic diagonal runs

def _prefilter_pieces(n: int, text: str, inverse: str) -> tuple[str, ...]:
    """The pieces (module docstring) of a reducer s of n letters, cut from
    text = _enc(s + s) and inverse = _enc(s^-1 + s^-1)."""
    k = max(1, n // 8)
    w = n // 2 + 2 - k
    return tuple(dict.fromkeys(e[a:a + w] for e in (text, inverse) for a in range(0, n, k)))


def _places(piece: str, text: str, i: int, end: int) -> list[int]:
    """Every start of ``piece`` in text[i:end], overlapping ones included."""
    out = []
    while (i := text.find(piece, i, end)) >= 0:
        out.append(i)
        i += 1
    return out


def _piece_places(piece: str, both: str, n: int, p: int) -> tuple[int, list[int], list[int]]:
    """A piece's least period q if 2 q <= |piece| (else 0; by Fine and Wilf, the
    first place after 0 of its first ceil(|piece|/2) letters, if a period), its
    places in T within one period p per half, and those of them whose place q
    letters before, cyclically in the half, is none (all if q is 0)."""
    w = len(piece)
    q = piece.find(piece[:w - w // 2], 1)
    q = q if 0 < q <= w // 2 and piece[q:] == piece[:w - q] else 0
    ys = [y for base in (0, 2 * n) for y in _places(piece, both, base, base + p + w - 1)]
    if not q:
        return 0, ys, ys
    at = set(ys)                         # y - y % (2 n) is the start of y's half
    return q, ys, [y for y in ys if y - y % (2 * n) + (y % (2 * n) - q) % p not in at]


def _anchors(target: str, end: int, s: _Relator) -> list[tuple[int, int]]:
    """Pairs (x, y) of places of one piece of s in target[:end] and in T, but
    none whose pair q letters before is one too, q the piece's period: the two
    lie in one run (module docstring)."""
    if not s.places:
        s.places = tuple(_piece_places(piece, s.both, len(s.word), s.period)
                         for piece in s.pieces)
    pairs = []
    for piece, (q, ys, firsts) in zip(s.pieces, s.places):
        x = target.find(piece, 0, end)
        if x < 0:                        # most pieces are in no target: skip the call
            continue
        xs = _places(piece, target, x, end)
        at = set(xs) if q and len(xs) > 1 else ()
        pairs += [(x, y) for x in xs for y in (firsts if x - q in at else ys)]
    return pairs


def _masked(text: str, arcs: list, L: int) -> str:
    """text = r + r, |r| = L, with every letter of the arcs (start, cut, _) of
    the cyclic word r, in both of its copies, replaced by ``_MASK``; built by
    slices."""
    n = len(text)
    parts = []
    i = 0
    for a, b in sorted((a + o, a + o + cut) for a, cut, _ in arcs for o in (-L, 0, L)):
        if 0 < b and a < n:              # a copy that meets text
            a = a if a > 0 else 0
            b = b if b < n else n
            parts += text[i:a], _MASK * (b - a)
            i = b
    parts.append(text[i:])
    return "".join(parts)


def _diagonal_runs(target: str, masked: str, end: int,
                   s: _Relator) -> list[tuple[int, bool, int, int]]:
    """Sorted maximal runs (start, live, place, stop) of masked[:end] through
    every anchor of the reducer s: letter i of masked, start <= i < stop,
    equals letter i - start after T-place ``place``, read cyclically in its
    half.  ``masked`` is ``target`` with some letters replaced by ``_MASK``, and
    a run is live when its start is its true start: the letter before it,
    read in ``target``, disagrees on its diagonal.  So at one start the runs
    that are not live come first.  A run first tries to reach the furthest
    stop so far with one comparison."""
    n, p, both = len(s.word), s.period, s.both
    w = len(s.pieces[0])
    runs = []
    if n < 16:                           # a run's first anchor is at its start: forward only
        for x, y in _anchors(masked, end, s):
            base = y - y % (2 * n)
            d = (y - base - x) % p
            before = x and both[base + (x - 1 + d) % p]   # the letter x - 1 faces
            if not x or masked[x - 1] != before:
                b = x + w
                while b < end and masked[b] == both[base + (b + d) % p]:
                    b += 1
                runs.append((x, masked is target or not x or target[x - 1] != before, y, b))
        return sorted(runs)
    reach: dict[int, int] = {}
    furthest = 0
    for x, y in sorted(_anchors(masked, end, s)):
        base = y - y % (2 * n)           # the half of T that y lies in
        d = (y - base - x) % p           # masked[i] faces both[base + (i + d) % p]
        if x < reach.get(base + d, 0):   # inside the run found on this diagonal before
            continue
        a, b = x, x + w
        while a and masked[a - 1] == both[base + (a - 1 + d) % p]:
            a -= 1
        c = base + (b + d) % p           # a slice of n letters from c stays in the half
        if b < furthest <= b + n and masked[b:furthest] == both[c:c + furthest - b]:
            b = furthest
        while b < end and masked[b] == both[base + (b + d) % p]:
            b += 1
        reach[base + d] = b
        if b > furthest:
            furthest = b
        live = masked is target or not a or target[a - 1] != both[base + (a - 1 + d) % p]
        runs.append((a, live, base + (a + d) % p, b))
    return sorted(runs)


def _add_families(families: list, target: str, masked: str, L: int, j: int,
                  s: _Relator) -> int:
    """Append to ``families`` the candidate families of the reducer s in slot j
    (``_Simplifier._collect_arcs``) from its runs in ``masked``, a target r + r
    of |r| = L masked where letters are taken; a run that is not live has no
    partial family.  Returns the least order |s| - 2 cut appended, or 1."""
    slen = len(s.word)
    h = slen // 2 + 1                    # shortest match with 2 |match| > |s|
    reach = 0                            # each end once, from the run of least (start, place)
    least = 1
    for a, live, y, b in _diagonal_runs(target, masked, L + slen - 1, s):
        lo = a + h - 1 if a + h - 1 > reach else reach   # its first end
        whole = a + slen - 1             # its first end of a whole match
        if lo < b:
            if live and lo < whole:
                cut = (b if b < whole else whole) - a
                families.append((slen - 2 * cut, a % L, j, cut, a, lo - a + 1, y))
                least = slen - 2 * cut if slen - 2 * cut < least else least
            if whole < b:
                first = (lo if lo > whole else whole) - slen + 1
                families.append((-slen, first, j, slen, a, b - slen, y))
                least = -slen
        reach = b if b > reach else reach
    return least


class _Relator:
    """One relator value for one ``tietze_simplify`` call: its encodings, pieces
    and places, each built at most once, and its place in the rescan rule (see
    ``shorten``)."""

    __slots__ = ("word", "fingerprint", "text", "both", "pieces", "places", "period", "key",
                 "born", "clean", "excluded", "slots")

    def __init__(self, word: IntWord):
        self.word = word
        self.fingerprint = _fingerprint(word)
        self.text = ""                   # _enc(word + word): as a target, and as a reducer
        self.both = ""                   # text + _enc(word^-1 + word^-1): T, as a reducer
        self.pieces: tuple[str, ...] = ()  # its pieces, as a reducer
        self.places: tuple = ()          # _piece_places of each piece, as a reducer
        self.period = 0                  # the length of word's primitive root
        self.key: IntWord = ()           # _canon_key(word)
        self.born = 0                    # stamp of its last entry into the reducer list
        self.clean = 0                   # stamp at its last scan that found no arc
        self.excluded: IntWord = ()      # the owner value that scan left out
        self.slots: list[int] = []       # its places in the reducer list


# ---------------------------------------------------------------------------
# the simplifier

class _Simplifier:
    def __init__(self, p: Presentation, budget: int, protect: frozenset[GenSym],
                 eliminate_short: bool = False):
        self.state = _TietzeState(p)
        self.protect = {p.alphabet.index(s) + 1 for s in protect}
        self.eliminate_short = eliminate_short
        self.moves: list[IntMove] = []
        self.budget = budget
        self.exhausted = False
        # relator records by value, for this call only
        self.records: dict[IntWord, _Relator] = {}
        self.reducers: list[_Relator] = []   # the latest round's reducer list
        self.born: list[_Relator] = []       # born[t - 1] got birth stamp t
        self.chars = _chars(l for g in range(1, len(p.alphabet) + 1) for l in (g, -g))
        self.flip = {ord(c): ord(c) ^ 1 for c in self.chars.values()}  # l's char <-> -l's

    @property
    def rels(self) -> list[IntWord]:
        return self.state.rels

    def _afford(self, n: int) -> bool:
        if self.budget < n:
            self.exhausted = True
            return False
        self.budget -= n
        return True

    def _emit(self, *move) -> None:
        self.moves.append(move)
        self.state.apply(move)

    def _replace(self, old: IntWord, new: IntWord) -> None:
        self._emit("add-relator", new)
        self._emit("remove-relator", old)

    def _record(self, w: IntWord) -> _Relator:
        return self.records.get(w) or self.records.setdefault(w, _Relator(w))

    def _records(self, words: Iterable[IntWord]) -> list[_Relator]:
        get = self.records.get
        return [get(w) or self._record(w) for w in words]

    # -- (c) normalization --------------------------------------------------

    def _key(self, w: IntWord) -> IntWord:
        rec = self._record(w)
        rec.key = rec.key or _canon_key(w)
        return rec.key

    def normalize(self) -> None:
        """Drop empty relators and repeats up to rotation and inversion, the first
        occurrence kept (every relator is already cyclically reduced:
        ``_TietzeState`` stores no other)."""
        rels = list(self.rels)
        drop = _repeats(rels, [rec.fingerprint for rec in self._records(rels)], self._key)
        for i, w in enumerate(rels):
            if w and i not in drop:
                continue
            if not self._afford(1):
                return
            self._emit("remove-relator", w)

    # -- (b) common-substring shortening --------------------------------------

    def _birth(self, rec: _Relator) -> None:
        self.born.append(rec)
        rec.born = len(self.born)
        if not rec.pieces:
            w = rec.word
            rec.text = rec.text or _enc(w, self.chars) * 2
            inverse = rec.text[::-1].translate(self.flip)   # _enc(w^-1 + w^-1)
            rec.both = rec.text + inverse
            rec.pieces = _prefilter_pieces(len(w), rec.text, inverse)
            rec.period = rec.text.find(rec.text[:len(w)], 1)

    def _admit(self, words: Sequence[IntWord]) -> list[_Relator]:
        """The reducer list of a new round; values absent from the last one are born."""
        last = set(self.reducers)
        for rec in self.reducers:
            rec.slots = []
        self.reducers = self._records(words)
        for j, rec in enumerate(self.reducers):
            if not rec.slots and rec not in last:
                self._birth(rec)
            rec.slots.append(j)
        return self.reducers

    def _collect_arcs(self, owner: int, r: IntWord, reducers: list[_Relator]):
        """Disjoint positive-gain replacement arcs on the cyclic word r.

        Every match with 2 |match| > |s| in r + r (module docstring) of each
        reducer s is a candidate, keyed (|s| - 2 cut, start, reducer, cut) and
        then by its end, and the arcs are the candidates taken greedily in key
        order, each unless it meets one taken before.  Reducers are the other
        relators with |s| <= |r| in the round's list from ``_admit``, always at
        their *current* value: rewriting against a relator no longer in the
        presentation is not a Tietze move and can change the group.  A value of
        r scanned before without an arc tests only the reducers that scan did
        not (the rule is in ``shorten``).  Returns arcs (start, cut,
        complement) in the coordinates of r, in the order taken.

        The candidates of a diagonal run (a, y, b) form at most two families,
        each in key order: the partial matches from a (the start is a mod L
        and the cut falls from the longest) and the whole matches of s (cut
        |s|, ends below L + |s| - 1, so starts below L, rising).  A queue
        sorted by key holds each family's least candidate not yet ruled out
        (a family goes back in by ``insort``).  The taken letters only grow,
        so a candidate that meets them now meets them when its turn comes: a
        partial family blocked at its first taken letter t falls to cut t (or
        dies below its least cut), a whole family jumps past its last taken
        letter, and after an accepted whole match its next start is |s|
        further on.  The queue so takes exactly the arcs of the sorted scan.

        No key of s is below -|s|, so a reducer whose pieces occur in r waits,
        longest first, until the least key of the queue (and of the families
        generated but not yet sorted in) reaches -|s|; then it is generated,
        with every other reducer of that bar, over the target masked where
        letters are taken (module docstring).
        """
        L = len(r)
        rec = self._record(r)
        target = rec.text = rec.text or _enc(r, self.chars) * 2
        if rec.clean:                    # a rescan: only what its last scan did not test
            scan = {j for s in self.born[rec.clean:] for j in s.slots}.union(
                self.records[rec.excluded].slots)
        else:
            scan = range(len(reducers))
        # a piece has at most L // 2 + 1 letters, so each of its places in
        # r + r repeats one that starts below L, in head
        head = target[:L + L // 2]
        waiting = []                     # (-|s|, j) of the reducers to generate
        for j in scan:
            s = reducers[j]
            n = len(s.word)
            if j == owner or not n or n > L:
                continue
            for p in s.pieces:           # most pairs share no piece: test that before any places
                if p in head:
                    waiting.append((-n, j))
                    break
        if not waiting:
            rec.clean, rec.excluded = len(self.born), reducers[owner].word
            return []
        waiting.sort()                   # longest first
        waiting.append((1, owner))       # then above every key: the queue is taken to its end
        # (|s| - 2 cut, start, j, cut, a, bound, y): bound is a partial family's
        # least cut, or a whole family's last start; a orders equal partial keys
        # by end, as ends i and i + L of one cyclic match have the same key
        queue: list[tuple[int, int, int, int, int, int, int]] = []
        at = 0                           # queue[at:] is the queue, in key order
        new: list[tuple[int, int, int, int, int, int, int]] = []   # not in the queue yet
        taken = 0                        # bits p and p + L both mark letter p of r
        masked, masks = target, 0        # the target masked where its first ``masks`` arcs lie
        arcs: list[tuple[int, int, IntWord]] = []
        low = 1                          # the least order in the queue and in new
        for m, j in waiting:
            if low < m:                  # every key below -|s| first
                if new:
                    del queue[:at]
                    queue += new
                    queue.sort()
                    at, new = 0, []
                while at < len(queue):
                    order, start, i, cut, a, bound, y = queue[at]
                    if order >= m:
                        break
                    at += 1
                    span = ((1 << cut) - 1) << start
                    hit = taken & span
                    slen = order + 2 * cut
                    if cut < slen:       # a partial family: its start is fixed
                        if hit:          # cut back to the first taken letter
                            if cut > bound:
                                cut = (hit & -hit).bit_length() - 1 - start
                                if cut >= bound:
                                    insort(queue, (slen - 2 * cut, start, i, cut, a, bound, y),
                                           at)
                            continue
                        w = reducers[i].word
                        rest = range(y + cut, y + slen)  # T-places of the cyclic word after it
                        # read from w in either half: letter e of w^-1 is -w[~e]
                        arcs.append((start, cut, tuple(w[e % slen] for e in rest)
                                     if y < 2 * slen else tuple(-w[~(e % slen)] for e in rest)))
                    else:                # a whole family: its start rises
                        following = hit.bit_length() if hit else start + slen
                        if following <= bound:
                            insort(queue, (order, following, i, cut, a, bound, y), at)
                        if hit:          # next, just past the last taken letter
                            continue
                        arcs.append((start, cut, ()))
                    taken |= span | span << L | span >> L
                low = queue[at][0] if at < len(queue) else 1
            if m > 0:
                break
            s = reducers[j]
            if arcs:
                if len(arcs) != masks:
                    masked, masks = _masked(target, arcs, L), len(arcs)
                for p in s.pieces:
                    if p in masked:
                        break
                else:
                    continue
            least = _add_families(new, target, masked, L, j, s)
            low = least if least < low else low
        if not arcs:
            rec.clean, rec.excluded = len(self.born), reducers[owner].word
        return arcs

    @staticmethod
    def _apply_arcs(r: IntWord, arcs) -> IntWord:
        """Replace each arc's piece by the inverse of its complement.

        Rotates r so that no arc wraps (arcs are disjoint, so the position
        after any arc is interior to none), then splices right to left.
        """
        L = len(r)
        base = (arcs[0][0] + arcs[0][1]) % L
        linear = list(r[base:] + r[:base])
        rel = sorted(((start - base) % L, cut, comp) for start, cut, comp in arcs)
        for start, cut, comp in reversed(rel):
            linear[start:start + cut] = list(_iinv(comp))
        return _icyc(linear)

    def shorten(self) -> None:
        """Rewriting rounds until no relator shrinks.

        Rescan rule: a value's candidates against a reducer depend only on the
        two values, so a pair once tested without a match never needs testing
        again.  A value gets a birth stamp whenever it enters the round's
        reducer list, and a target scan that finds no arc stamps the target
        value clean.  On its next scan it tests only the reducers born since
        then, plus the value it left out as owner (which may now sit in another
        slot); every other reducer in the list was in it, unchanged, at that
        scan.
        """
        while self.budget > 0:
            self.normalize()
            if not self.rels:
                return
            reducers = self._admit(self.rels)
            order = sorted(range(len(self.rels)),
                           key=lambda j: (-len(self.rels[j]), self.rels[j]))
            start = len(self.moves)
            for j in order:
                cur = reducers[j].word
                while cur:
                    arcs = self._collect_arcs(j, cur, reducers)
                    if not arcs or not self._afford(2):
                        break
                    new = self._apply_arcs(cur, arcs)
                    self._replace(cur, new)
                    cur = new
                if cur is not reducers[j].word:
                    # later targets may reduce against this relator's new value
                    reducers[j].slots.remove(j)
                    reducers[j] = self._record(cur)
                    reducers[j].slots.append(j)
                    self._birth(reducers[j])
            if len(self.moves) == start:     # no rewrite this round
                return

    # -- (a) generator elimination ---------------------------------------------

    def _candidate(self):
        for r in sorted(self.rels, key=lambda w: (len(w), w)):
            counts: dict[int, int] = {}
            for l in r:
                counts[abs(l)] = counts.get(abs(l), 0) + 1
            for g in sorted(counts):
                if counts[g] == 1 and g not in self.protect:
                    return r, g
        return None

    def eliminate_once(self, longest: int | None = None) -> bool:
        """Eliminate the first candidate unless its relator passes ``longest`` letters."""
        cand = self._candidate()
        if cand is None or longest and len(cand[0]) > longest or not self._afford(1):
            return False
        r, g = cand
        at = next(k for k, l in enumerate(r) if abs(l) == g)
        rot = r[at:] + r[:at]
        expr = _iinv(rot[1:]) if rot[0] > 0 else rot[1:]
        self._emit("eliminate-generator", g, expr, r)
        return True

    # -- driver ------------------------------------------------------------------

    def _snapshot(self):
        quality = (sum(len(r) for r in self.rels), len(self.state.symbols), len(self.rels))
        return quality, len(self.moves)

    def run(self) -> tuple[list[IntMove], bool]:
        """The moves up to the best state reached, and whether the budget ran out."""
        best = self._snapshot()
        while self.eliminate_short and self.eliminate_once(_SHORT_DEFINING):
            self.normalize()
        while self.budget > 0:
            self.shorten()
            best = min(best, self._snapshot(), key=lambda s: s[0])
            if not self.eliminate_once():
                break
            best = min(best, self._snapshot(), key=lambda s: s[0])
        return self.moves[:best[1]], self.exhausted or self.budget == 0


def tietze_simplify(p: Presentation, budget: int = 20000, protect: Iterable[GenSym] = (),
                    *, eliminate_short: bool = False) -> tuple[Presentation, TietzeLog]:
    """Deterministic simplification by Tietze moves; see module docstring.

    ``budget`` caps the number of applied moves; on exhaustion the best
    state reached so far is returned, with ``log.exhausted`` set.  Symbols
    in ``protect`` are never eliminated.  ``eliminate_short`` runs the phase
    of short eliminations first (module docstring).  Total relator length of
    the result never exceeds the input's, and replaying the returned log on
    ``p`` reproduces the result exactly.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    sim = _Simplifier(p, budget, frozenset(protect), eliminate_short)
    moves, exhausted = sim.run()
    state = sim.state if len(moves) == len(sim.moves) else _TietzeState(p, moves)
    return state.presentation(), TietzeLog.from_codes(p.alphabet, moves, exhausted)
