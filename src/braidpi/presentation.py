"""Finitely presented groups and Tietze simplification.

A ``Presentation`` stores freely *and cyclically* reduced relators with
no duplicates up to rotation and inversion (two such relators have the
same normal closure, so they are one relator).  Identity relators are
dropped.

``tietze_simplify`` applies the classical moves:

  (a) eliminate a generator occurring exactly once in some relator
      (shortest such relator first, ties by alphabet order),
  (b) shorten relators by rewriting common substrings against other
      relators: if a cyclic variant of s factors as p q with |p| > |q|
      and p occurs cyclically in r, rewrite r with p replaced by q^-1,
  (c) drop duplicates / rotations / inversions.

Every change is a recorded ``TietzeMove``; the engine and
``TietzeLog.replay`` mutate state through the same application routine,
so replaying the log over the source presentation reproduces the result
exactly, and the output presents an isomorphic group by construction.
The substring search in (b) tests a reducer s against r + r (L = |r|) only
if a prefilter piece of s occurs there: for |s| < 16 every cyclic window of
s and s^-1 of floor(|s|/2) + 1 letters, which passes exactly when a match
exists, else the quarter-pieces cut at floor(t |s| / 4), one of which every
match of more than |s|/2 letters holds.  It reads L + |s| - 1 letters (a later
match repeats one ending L letters earlier) and needs, at each end, the longest
match in T = s + s, separator, s^-1 + s^-1 and its first end in T.  Below
``_RUNS`` letters the suffix automaton of T (Blumer et al., TCS 1985) gives both.
From there on, each place of a piece in r + r and each in T fix a diagonal with a
maximal run of agreeing letters; such a match holds a piece wherever it occurs,
so the longest one ending at i starts at the least start of the runs through i
and first ends on the least diagonal of the runs from there.  A pair with more
anchors than letters to read (a periodic s) takes the automaton.  Each relator
value has one record per call (pieces, encodings, canonical key, automaton or
piece places), and a target value that came up empty is next tested only
against the reducers that entered the list since and the owner it left out.
All iteration orders are fixed, so results are deterministic for a given
budget.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple, Sequence

from .braid import Braid, strand_images
from .word_core import Alphabet, GenSym, Word, _iinv, _ireduce, _Record

IntWord = tuple[int, ...]

# a reducer's automaton reads _enc(s + s), _SEP, _enc(s^-1 + s^-1); encoded
# letters start above the separator, so no match crosses it
_SEP = "\x01"
_OFS = 0x20


def _enc(w: IntWord) -> str:
    return "".join(chr(_OFS + 2 * abs(l) + (0 if l > 0 else 1)) for l in w)


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


class Presentation:
    """Generator alphabet plus normalized relator list."""

    def __init__(self, alphabet: Alphabet, relators: Iterable[Word]):
        self.alphabet = alphabet
        normalized: list[Word] = []
        seen: set[IntWord] = set()
        for w in relators:
            alphabet.check_word(w)
            w = w.cyclically_reduced()
            if w.is_identity():
                continue
            key = _canon_key(alphabet.encode(w))
            if key in seen:
                continue
            seen.add(key)
            normalized.append(w)
        self.relators: tuple[Word, ...] = tuple(normalized)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Presentation)
                and self.alphabet == other.alphabet
                and self.relators == other.relators)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.relators))

    def total_length(self) -> int:
        return sum(len(r) for r in self.relators)

    def encoded_relators(self) -> list[IntWord]:
        return [self.alphabet.encode(r) for r in self.relators]

    def __str__(self) -> str:
        gens = " ".join(str(s) for s in self.alphabet)
        rels = ", ".join(str(r) for r in self.relators)
        return f"< {gens} | {rels} >"

    def __repr__(self) -> str:
        return (f"Presentation({len(self.alphabet)} generators, "
                f"{len(self.relators)} relators, total length {self.total_length()})")


def _fiber_images(fiber: Alphabet, beta: Braid) -> list[Word]:
    """(d) beta for each d of the fiber, from one set of strand images."""
    images = strand_images(beta, fiber)
    return [fiber.decode(images.get(i, (i,))) for i in range(1, len(fiber) + 1)]


def conjugation_relators(fiber: Alphabet, gamma: GenSym, beta: Braid) -> list[Word]:
    """Relators gamma d gamma^-1 ((d) beta)^-1: conjugation by gamma acts as beta."""
    g = Word.gen(gamma)
    return [g * Word.gen(d) * g.inverse() * image.inverse()
            for d, image in zip(fiber, _fiber_images(fiber, beta))]


def stabilizer_relators(fiber: Alphabet, braids: Sequence[Braid]) -> list[Word]:
    """Relators d_i^-1 (d_i) beta stating that each braid fixes the fiber,
    cyclically reduced; ``Presentation`` drops the duplicates among them."""
    out: list[Word] = []
    for beta in braids:
        for d, image in zip(fiber, _fiber_images(fiber, beta)):
            w = (Word.gen(d, -1) * image).cyclically_reduced()
            if w:
                out.append(w)
    return out


def add_relators(p: Presentation, ws: Iterable[Word]) -> Presentation:
    return Presentation(p.alphabet, list(p.relators) + list(ws))


# ---------------------------------------------------------------------------
# Tietze moves: one application routine shared by the engine and replay

class TietzeMove(NamedTuple):
    kind: str  # add-relator | remove-relator | eliminate-generator
    payload: tuple


class _TietzeState:
    """Mutable (alphabet, relator list) that only changes via apply()."""

    def __init__(self, p: Presentation):
        self.source = p.alphabet  # int codes stay relative to the source alphabet
        self.symbols: list[GenSym] = list(p.alphabet.symbols)
        # already distinct up to rotation and inversion (Presentation.__init__)
        self.rels: list[IntWord] = p.encoded_relators()

    def enc(self, w: Word) -> IntWord:
        return _icyc(self.source.encode(w))

    def apply(self, move: TietzeMove) -> None:
        if move.kind == "add-relator":
            self.rels.append(self.enc(move.payload[0]))
        elif move.kind == "remove-relator":
            self.rels.remove(self.enc(move.payload[0]))
        elif move.kind == "eliminate-generator":
            sym, expr, defining = move.payload
            g = self.source.index(sym) + 1
            self.rels.remove(self.enc(defining))
            images = {g: self.source.encode(expr)}
            images[-g] = _iinv(images[g])
            self.rels = [w for w in (_icyc(x for l in r for x in images.get(l, (l,)))
                                     for r in self.rels) if w]
            self.symbols.remove(sym)
        else:
            raise ValueError(f"unknown move kind {move.kind}")

    def presentation(self) -> Presentation:
        return Presentation(Alphabet(self.symbols),
                            [self.source.decode(r) for r in self.rels])


class TietzeLog(_Record):
    __slots__ = ("moves", "exhausted")  # exhausted: the move budget ran out first

    def __init__(self, moves: list[TietzeMove] | None = None, exhausted: bool = False):
        self._init([] if moves is None else moves, exhausted)

    def replay(self, p: Presentation) -> Presentation:
        """Re-apply the recorded moves to ``p``, reproducing the target."""
        state = _TietzeState(p)
        for mv in self.moves:
            state.apply(mv)
        return state.presentation()


# ---------------------------------------------------------------------------
# suffix automaton for the common-substring search

class _SuffixAutomaton:
    __slots__ = ("nxt", "link", "length", "fpos")

    def __init__(self, s: str):
        nxt: list[dict[str, int]] = [{}]
        link, length, fpos = [-1], [0], [-1]
        self.nxt, self.link, self.length, self.fpos = nxt, link, length, fpos
        last = 0
        for i, ch in enumerate(s):
            cur = len(length)
            nxt.append({})
            link.append(0)
            length.append(length[last] + 1)
            fpos.append(i)
            p = last
            while p != -1 and ch not in nxt[p]:
                nxt[p][ch] = cur
                p = link[p]
            if p == -1:
                link[cur] = 0
            else:
                q = nxt[p][ch]
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    clone = len(length)
                    nxt.append(dict(nxt[q]))
                    link.append(link[q])
                    length.append(length[p] + 1)
                    fpos.append(fpos[q])
                    while p != -1 and nxt[p].get(ch) == q:
                        nxt[p][ch] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur


# Below _EXACT_WINDOWS letters a reducer's prefilter pieces are its windows, and
# from _RUNS on it takes diagonal runs (module docstring).  Pi' and the orbifold
# covers for k <= 20 simplify fastest with _EXACT_WINDOWS at 16-24; run(1..6)
# took the same time and memory with _RUNS from 16 to 600, more time at 1.
_EXACT_WINDOWS = 16
_RUNS = 100


def _prefilter_pieces(n: int, text: str, inverse: str) -> tuple[str, ...]:
    """The prefilter pieces (module docstring) of a reducer s of n letters, cut
    from text = _enc(s + s) and inverse = _enc(s^-1 + s^-1): each piece starts
    in the first n letters and wraps by fewer than n."""
    if n < _EXACT_WINDOWS:
        h = n // 2 + 1
        spans = [(a, a + h) for a in range(n)]
    else:
        cuts = [t * n // 4 for t in range(5)]
        spans = list(zip(cuts, cuts[1:]))
    return tuple(dict.fromkeys(e[a:b] for e in (text, inverse) for a, b in spans))


def _places(piece: str, text: str) -> list[int]:
    """Every start of ``piece`` in ``text``, overlapping ones included."""
    out, i = [], -1
    while (i := text.find(piece, i + 1)) >= 0:
        out.append(i)
    return out


def _agree(t: str, x: int, both: str, y: int, room: int, step: int) -> int:
    """The most letters, at most ``room``, on which t and ``both`` agree after
    (step 1) or before (step -1) positions x and y: gallop, then bisect."""
    def differ(k: int) -> bool:
        return t[x:x + k] != both[y:y + k] if step > 0 else t[x - k:x] != both[y - k:y]
    hi = 1
    while hi <= room and not differ(hi):
        hi *= 2
    return bisect_left(range(hi // 2, min(hi, room + 1)), True, key=differ) + hi // 2 - 1


def _diagonal_runs(t: str, s: _Relator) -> list[tuple[int, int, int]] | None:
    """Sorted maximal runs (start, diagonal, end), t[i] == s.both[i + diagonal] for
    start <= i < end, through every anchor; None if anchors outnumber letters."""
    s.places = s.places or tuple(_places(p, s.both) for p in s.pieces)
    anchors = []
    for piece, ys in zip(s.pieces, s.places):
        xs = _places(piece, t)
        if len(anchors) + len(xs) * len(ys) > len(t):
            return None
        anchors += [(x, y - x, len(piece)) for x in xs for y in ys]
    both, reach, runs = s.both, {}, []
    for x, d, n in sorted(anchors):
        if x >= reach.get(d, 0):         # not inside the run found on d before
            a = x - _agree(t, x, both, x + d, min(x, x + d), -1)
            room = min(len(t) - x, len(both) - x - d) - n
            b = x + n + _agree(t, x + n, both, x + n + d, room, 1)
            reach[d] = b
            runs.append((a, d, b))
    return sorted(runs)


class _Relator:
    """One relator value for one ``tietze_simplify`` call: its encodings and matcher,
    each built at most once, and its place in the rescan rule (see ``shorten``)."""

    __slots__ = ("word", "text", "both", "pieces", "places", "key", "automaton", "born",
                 "clean", "excluded", "slots")

    def __init__(self, word: IntWord):
        self.word = word
        self.text = ""                   # _enc(word + word): as a target, and as a reducer
        self.both = ""                   # text + _SEP + _enc(word^-1 + word^-1): T, as a reducer
        self.pieces: tuple[str, ...] = ()  # its prefilter pieces, as a reducer
        self.places: tuple[list[int], ...] = ()  # each piece's places in T
        self.key: IntWord = ()           # _canon_key(word)
        self.automaton: _SuffixAutomaton | None = None
        self.born = 0                    # stamp of its last entry into the reducer list
        self.clean = 0                   # stamp at its last scan that found no arc
        self.excluded: IntWord = ()      # the owner value that scan left out
        self.slots: list[int] = []       # its places in the reducer list


# ---------------------------------------------------------------------------
# the simplifier

class _Simplifier:
    def __init__(self, p: Presentation, budget: int, protect: frozenset[GenSym]):
        self.state = _TietzeState(p)
        self.protect = {p.alphabet.index(s) + 1 for s in protect}
        self.moves: list[TietzeMove] = []
        self.budget = budget
        self.exhausted = False
        # relator records by value, for this call only
        self.records: dict[IntWord, _Relator] = {}
        self.reducers: list[_Relator] = []   # the latest round's reducer list
        self.born: list[_Relator] = []       # born[t - 1] got birth stamp t

    @property
    def rels(self) -> list[IntWord]:
        return self.state.rels

    def _afford(self, n: int) -> bool:
        if self.budget < n:
            self.exhausted = True
            return False
        self.budget -= n
        return True

    def _word(self, w: IntWord) -> Word:
        return self.state.source.decode(w)

    def _emit(self, kind: str, *payload) -> None:
        mv = TietzeMove(kind, payload)
        self.moves.append(mv)
        self.state.apply(mv)

    def _replace(self, old: IntWord, new: IntWord) -> None:
        self._emit("add-relator", self._word(new))
        self._emit("remove-relator", self._word(old))

    def _record(self, w: IntWord) -> _Relator:
        rec = self.records.get(w)
        if rec is None:
            rec = self.records[w] = _Relator(w)
        return rec

    # -- (c) normalization --------------------------------------------------

    def normalize(self) -> bool:
        """Drop empty relators and repeats up to rotation and inversion (every
        relator is already cyclically reduced: ``_TietzeState`` stores no other)."""
        changed = False
        seen: set[IntWord] = set()
        for w in list(self.rels):
            if w:
                rec = self._record(w)
                rec.key = rec.key or _canon_key(w)
                if rec.key not in seen:
                    seen.add(rec.key)
                    continue
            if not self._afford(1):
                return changed
            self._emit("remove-relator", self._word(w))
            changed = True
        return changed

    # -- (b) common-substring shortening --------------------------------------

    def _birth(self, rec: _Relator) -> None:
        self.born.append(rec)
        rec.born = len(self.born)
        if not rec.pieces:
            w = rec.word
            rec.text = rec.text or _enc(w + w)
            inverse = _enc(_iinv(w) * 2)
            rec.both = rec.text + _SEP + inverse
            rec.pieces = _prefilter_pieces(len(w), rec.text, inverse)

    def _admit(self, words: Sequence[IntWord]) -> list[_Relator]:
        """The reducer list of a new round; values absent from the last one are born."""
        last = set(self.reducers)
        for rec in self.reducers:
            rec.slots = []
        self.reducers = [self._record(w) for w in words]
        for j, rec in enumerate(self.reducers):
            if not rec.slots and rec not in last:
                self._birth(rec)
            rec.slots.append(j)
        return self.reducers

    def _collect_arcs(self, owner: int, r: IntWord, reducers: list[_Relator]):
        """Disjoint positive-gain replacement arcs on the cyclic word r.

        Collects every match with 2 |match| > |s| in r + r (module docstring)
        of each reducer s, in order of reducer, then end, and greedily keeps a
        disjoint set, best gain first.  Reducers are the other relators with
        |s| <= |r| in the round's list from ``_admit``, always at their
        *current* value: rewriting against a relator no longer in the
        presentation is not a Tietze move and can change the group.  A value of
        r scanned before without an arc tests only the reducers that scan did
        not (the rule is in ``shorten``).  Returns arcs (start, cut,
        complement) in the coordinates of r.
        """
        L = len(r)
        rec = self._record(r)
        target = rec.text = rec.text or _enc(r + r)
        if rec.clean:                    # a rescan: only what its last scan did not test
            scan = sorted({j for s in self.born[rec.clean:] if s.born > rec.clean
                           for j in s.slots}.union(self.records[rec.excluded].slots))
        else:
            scan = range(len(reducers))
        cands: list[tuple[int, int, int, int, int]] = []
        for j in scan:
            s = reducers[j]
            slen = len(s.word)
            if j == owner or not slen or slen > L:
                continue
            for p in s.pieces:
                if p in target:
                    break
            else:
                continue
            h = slen // 2 + 1           # shortest match with 2 |match| > |s|
            runs = _diagonal_runs(target[:L + slen - 1], s) if slen >= _RUNS else None
            if runs is not None:
                reach = 0                # each end once, from the run of least (start, diagonal)
                for a, d, b in runs:
                    for i in range(max(a + h - 1, reach), b):
                        cut = min(i - a + 1, slen)
                        cands.append((2 * cut - slen, (i - cut + 1) % L, cut, j, i + d))
                    reach = max(reach, b)
                continue
            sa = s.automaton
            if sa is None:               # a piece matched, so _birth encoded s both ways
                sa = s.automaton = _SuffixAutomaton(s.both)
            nxt, link, length, fpos = sa.nxt, sa.link, sa.length, sa.fpos
            v = l = 0
            for i, ch in enumerate(target[:L + slen - 1]):
                while v and ch not in nxt[v]:
                    v = link[v]
                    l = length[v]
                if ch in nxt[v]:
                    v = nxt[v][ch]
                    l += 1
                else:
                    l = 0
                if l >= h:
                    cut = l if l < slen else slen
                    cands.append((2 * cut - slen, (i - cut + 1) % L, cut, j, fpos[v]))
        if not cands:
            rec.clean, rec.excluded = len(self.born), reducers[owner].word
            return []
        cands.sort(key=lambda c: (-c[0], c[1], c[3], c[2]))
        taken = 0                        # bits p and p + L both mark letter p of r
        arcs = []
        for gain, start, cut, j, fend in cands:
            span = ((1 << cut) - 1) << start
            if taken & span:
                continue
            taken |= span | span << L | span >> L
            s = reducers[j].word
            slen = len(s)
            if fend < 2 * slen:          # match inside the s + s half
                u, end_u = s, fend
            else:                        # match inside the s^-1 + s^-1 half
                u, end_u = _iinv(s), fend - (2 * slen + 1)
            start_u = (end_u - cut + 1) % slen
            complement = tuple(u[(start_u + cut + k) % slen] for k in range(slen - cut))
            arcs.append((start, cut, complement))
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

    def shorten(self) -> bool:
        """Rewriting rounds until no relator shrinks.

        Each relator value has one ``_Relator`` record for the call, so its
        pieces, encodings and automaton are built at most once.  Rescan rule:
        a value's candidates against a reducer depend only on the two values,
        so a pair once tested without a match never needs testing again.  A
        value gets a birth stamp whenever it enters the round's reducer list,
        and a target scan that finds no arc stamps the target value clean.
        On its next scan it tests only the reducers born since then, plus
        the value it left out as owner (which may now sit in another slot);
        every other reducer in the list was in it, unchanged, at that scan.
        """
        any_change = False
        while self.budget > 0:
            self.normalize()
            if not self.rels:
                return any_change
            reducers = self._admit(self.rels)
            order = sorted(range(len(self.rels)),
                           key=lambda j: (-len(self.rels[j]), self.rels[j]))
            changed = False
            for j in order:
                cur = reducers[j].word
                moved = False
                while cur and cur in self.rels:
                    arcs = self._collect_arcs(j, cur, reducers)
                    if not arcs or not self._afford(2):
                        break
                    new = self._apply_arcs(cur, arcs)
                    if new == cur:
                        break
                    self._replace(cur, new)
                    cur = new
                    moved = True
                    changed = True
                    any_change = True
                if moved:
                    # later targets may reduce against this relator's new value
                    reducers[j].slots.remove(j)
                    reducers[j] = self._record(cur)
                    reducers[j].slots.append(j)
                    self._birth(reducers[j])
            if not changed:
                return any_change
        return any_change

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

    def eliminate_once(self) -> bool:
        cand = self._candidate()
        if cand is None or not self._afford(1):
            return False
        r, g = cand
        at = next(k for k, l in enumerate(r) if abs(l) == g)
        rot = r[at:] + r[:at]
        expr = _iinv(rot[1:]) if rot[0] > 0 else rot[1:]
        sym = self.state.source.symbols[g - 1]
        self._emit("eliminate-generator", sym, self._word(expr), self._word(r))
        return True

    # -- driver ------------------------------------------------------------------

    def _snapshot(self):
        quality = (sum(len(r) for r in self.rels), len(self.state.symbols), len(self.rels))
        return quality, len(self.moves)

    def run(self) -> TietzeLog:
        best = self._snapshot()
        while self.budget > 0:
            self.shorten()
            best = min(best, self._snapshot(), key=lambda s: s[0])
            if not self.eliminate_once():
                break
            self.normalize()
            best = min(best, self._snapshot(), key=lambda s: s[0])
        return TietzeLog(self.moves[:best[1]], self.exhausted or self.budget == 0)


def tietze_simplify(p: Presentation, budget: int = 20000,
                    protect: Iterable[GenSym] = ()) -> tuple[Presentation, TietzeLog]:
    """Deterministic simplification by Tietze moves; see module docstring.

    ``budget`` caps the number of applied moves; on exhaustion the best
    state reached so far is returned, with ``log.exhausted`` set.  Symbols
    in ``protect`` are never eliminated.  Total relator length of the result
    never exceeds the input's, and replaying the returned log on ``p``
    reproduces the result exactly.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    log = _Simplifier(p, budget, frozenset(protect)).run()
    return log.replay(p), log
