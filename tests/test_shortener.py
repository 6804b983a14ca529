"""The common-substring search of the Tietze shortener against a plain reference.

The reference collector walks every reducer through its suffix automaton,
over the whole of r + r, with no pieces and no memory of earlier scans;
the engine's diagonal runs must find exactly the same arcs, and so the same
moves.  A second oracle puts back the checks that the engine's invariants
make redundant, asserts those invariants, and must emit the same moves at
every budget.
"""

import gc
import hashlib
import random
import tracemalloc

from braidpi import pipeline, presentation
from braidpi.pipeline import GAMMA, SIGMA, full_alphabet, pi_prime
from braidpi.presentation import (Presentation, TietzeLog, TietzeMove, _enc, _iinv, _icyc,
                                  _prefilter_pieces, _Simplifier, _TietzeState, add_relators,
                                  tietze_simplify)
from braidpi.word_core import Alphabet, GenSym, Word

from . import reference
from .reference import SuffixAutomaton

_SEP = "\x01"     # below every encoded letter, so no match crosses it
_WINDOWS = 16     # below this many letters the stride is 1: the pieces are all windows
_LONG = 100       # the length of the long relators below


def _automaton(s):
    """The reference automaton for a reducer s: every cyclic subword of s and of
    s^-1, in T = s + s, separator, s^-1 + s^-1."""
    return SuffixAutomaton(_enc(s + s) + _SEP + _enc(_iinv(s) + _iinv(s)))


def _pieces(s):
    """The pieces the engine cuts for a reducer s."""
    return _prefilter_pieces(len(s), _enc(s + s), _enc(_iinv(s) + _iinv(s)))


def _period(s):
    """The length of the primitive root of s."""
    return next(p for p in range(1, len(s) + 1) if s == s[p:] + s[:p])


def _walk(sa, t):
    """Yield (end_index_in_t, match_length, first_occurrence_end) along t."""
    v = l = 0
    for i, ch in enumerate(t):
        while v and ch not in sa.nxt[v]:
            v = sa.link[v]
            l = sa.length[v]
        if ch in sa.nxt[v]:
            v = sa.nxt[v][ch]
            l += 1
        else:
            v = 0
            l = 0
        yield i, l, sa.fpos[v]


def _complement(s, fend, cut):
    """The rest of the cyclic word of s or s^-1 after a match of ``cut`` letters
    whose first occurrence in the automaton text ends at ``fend``."""
    slen = len(s)
    if fend < 2 * slen:
        u, end_u = s, fend
    else:
        u, end_u = _iinv(s), fend - (2 * slen + 1)
    start_u = (end_u - cut + 1) % slen
    return tuple(u[(start_u + cut + k) % slen] for k in range(slen - cut))


def reference_arcs(owner, r, reducers, automaton=_automaton):
    """Every reducer walked, every match with 2 |match| > |s| a candidate."""
    L = len(r)
    target = _enc(r + r)
    cands = []
    for j, s in enumerate(reducers):
        if j == owner or not s or len(s) > L:
            continue
        slen = len(s)
        for end_t, l, fend in _walk(automaton(s), target):
            cut = min(l, slen, L)
            if 2 * cut <= slen:
                continue
            start = (end_t - cut + 1) % L
            cands.append((2 * cut - slen, start, cut, j, fend))
    cands.sort(key=lambda c: (-c[0], c[1], c[3], c[2]))
    taken = [False] * L
    arcs = []
    for gain, start, cut, j, fend in cands:
        if any(taken[(start + k) % L] for k in range(cut)):
            continue
        for k in range(cut):
            taken[(start + k) % L] = True
        arcs.append((start, cut, _complement(reducers[j], fend, cut)))
    return arcs


class _ReferenceSimplifier(_Simplifier):
    """The engine with the reference collector in place of its own."""

    def __init__(self, *args):
        super().__init__(*args)
        self.built = {}

    def _automaton(self, s):
        if s not in self.built:
            self.built[s] = _automaton(s)
        return self.built[s]

    def _collect_arcs(self, owner, r, reducers):
        return reference_arcs(owner, r, [s.word for s in reducers], self._automaton)


def _outcome(state, moves, exhausted):
    """``moves`` applied to a fresh ``state`` from the first: the presentation
    reached, and a log decoded move by move, word by word."""
    decode, log = state.source.decode, []
    for mv in moves:
        state.apply(mv)
        if mv[0] == "eliminate-generator":
            payload = (state.source.symbols[mv[1] - 1], decode(mv[2]), decode(mv[3]))
        else:
            payload = (decode(mv[1]),)
        log.append(TietzeMove(mv[0], payload))
    return state.presentation(), TietzeLog(log, exhausted)


def _reference_simplify(p, budget=20000, protect=(), eliminate_short=False):
    sim = _ReferenceSimplifier(p, budget, frozenset(protect), eliminate_short)
    return _outcome(_TietzeState(p), *sim.run())


class _RewriteAllState(_TietzeState):
    """The state with an elimination that re-reduces every relator; it asserts
    that the ones without the generator come out unchanged."""

    def apply(self, move):
        if move[0] != "eliminate-generator":
            return super().apply(move)
        _, g, expr, defining = move
        self.rels.remove(defining)
        assert all(_icyc(r) == r for r in self.rels if g not in r and -g not in r)
        images = {g: expr}
        images[-g] = _iinv(images[g])
        self.rels = [w for w in (_icyc(x for l in r for x in images.get(l, (l,)))
                                 for r in self.rels) if w]
        self.symbols.remove(self.source.symbols[g - 1])


class _GuardedSimplifier(_Simplifier):
    """The engine with the checks its invariants make redundant: a liveness
    test and a no-shrink break for each rewrite, a normalization after each
    elimination, and the elimination of ``_RewriteAllState``.  It asserts
    that every rewrite shrinks and that, within a round, the relator list is
    the round's slots at their current values, so the target is live.  Its
    elimination phase finds each candidate by a scan of its own and asserts
    that the generator occurs once in a defining relator of at most three
    letters."""

    def __init__(self, p, budget, protect, eliminate_short=False):
        super().__init__(p, budget, protect, eliminate_short)
        self.state = _RewriteAllState(p)
        self.values, self.slot, self.rewrites = [], 0, 0

    def _apply_arcs(self, r, arcs):
        new = _Simplifier._apply_arcs(r, arcs)
        assert len(new) < len(r), (r, arcs)
        return new

    def _replace(self, old, new):
        assert self.values[self.slot] == old and sorted(self.rels) == sorted(self.values)
        super()._replace(old, new)
        self.values[self.slot] = new
        self.rewrites += 1

    def shorten(self):
        while self.budget > 0:
            self.normalize()
            if not self.rels:
                return
            reducers = self._admit(self.rels)
            self.values = list(self.rels)
            order = sorted(range(len(self.rels)),
                           key=lambda j: (-len(self.rels[j]), self.rels[j]))
            changed = False
            for j in order:
                cur, self.slot = reducers[j].word, j
                while cur and cur in self.rels:
                    arcs = self._collect_arcs(j, cur, reducers)
                    if not arcs or not self._afford(2):
                        break
                    new = self._apply_arcs(cur, arcs)
                    if new == cur:
                        break
                    self._replace(cur, new)
                    cur = new
                if cur is not reducers[j].word:
                    changed = True
                    reducers[j].slots.remove(j)
                    reducers[j] = self._record(cur)
                    reducers[j].slots.append(j)
                    self._birth(reducers[j])
            if not changed:
                return

    def _short_candidate(self):
        """The least (length, relator, generator) with the generator once in a
        relator of at most three letters and not protected, or None."""
        return min(((len(r), r, g) for r in self.rels if len(r) <= 3
                    for g in {abs(l) for l in r}
                    if g not in self.protect and [abs(l) for l in r].count(g) == 1),
                   default=None)

    def run(self):
        best = self._snapshot()
        while self.eliminate_short and self.budget > 0:
            cand = self._short_candidate()
            if cand is None:
                break
            before = len(self.moves)
            if not self.eliminate_once():
                break
            assert self.moves[before][1:4:2] == (cand[2], cand[1]), (cand, self.moves[before])
            self.normalize()
        while self.budget > 0:
            self.shorten()
            best = min(best, self._snapshot(), key=lambda s: s[0])
            if not self.eliminate_once():
                break
            self.normalize()
            best = min(best, self._snapshot(), key=lambda s: s[0])
        return self.moves[:best[1]], self.exhausted or self.budget == 0


def _guarded_simplify(p, budget=20000, protect=(), eliminate_short=False):
    """The guarded oracle's result, replayed through ``_RewriteAllState``, its
    log, and the simplifier (for its counters)."""
    sim = _GuardedSimplifier(p, budget, frozenset(protect), eliminate_short)
    result, log = _outcome(_RewriteAllState(p), *sim.run())
    return result, log, sim


def _random_word(rng, ngens, length):
    return tuple(rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(length))


def _random_presentation(rng):
    """Relators glued from a few shared chunks, so long common substrings occur."""
    ngens = rng.randint(1, 5)
    chunks = [_random_word(rng, ngens, rng.randint(1, 7)) for _ in range(rng.randint(1, 4))]
    rels = []
    for _ in range(rng.randint(1, 7)):
        w = ()
        for _ in range(rng.randint(1, 4)):
            c = rng.choice(chunks)
            w += c if rng.random() < 0.7 else _iinv(c)
            if rng.random() < 0.4:
                w += _random_word(rng, ngens, rng.randint(1, 3))
        rels.append(w)
    alph = Alphabet(GenSym("x", i) for i in range(1, ngens + 1))
    return Presentation(alph, [alph.decode(_icyc(w)) for w in rels])


def test_collect_arcs_matches_reference():
    rng = random.Random(2024)
    found = 0
    for _ in range(300):
        sim = _Simplifier(_random_presentation(rng), 20000, frozenset())
        reducers = sim._admit(sim.rels)
        plain = [s.word for s in reducers]
        for j, r in enumerate(plain):
            arcs = sim._collect_arcs(j, r, reducers)
            assert arcs == reference_arcs(j, r, plain), (plain, j)
            found += bool(arcs)
        # rescans of the same values under the same list, now from the
        # stamps that the scans above left
        for j, r in enumerate(plain):
            assert sim._collect_arcs(j, r, reducers) == reference_arcs(j, r, plain), (plain, j)
    assert found > 100  # the comparison is not vacuous


def _short_reducer_presentation(rng):
    """A few long relators and several reducers shorter than _WINDOWS, most
    cut from them."""
    ngens = rng.randint(1, 4)
    longs, count = [], rng.randint(1, 3)
    while len(longs) < count:
        w = _icyc(_random_word(rng, ngens, rng.randint(_WINDOWS, 3 * _WINDOWS)))
        if len(w) >= _WINDOWS:
            longs.append(w)
    shorts = []
    for _ in range(rng.randint(2, 6)):
        n = rng.randint(1, _WINDOWS - 1)
        if rng.random() < 0.7:
            w = rng.choice(longs)
            a = rng.randrange(len(w))
            piece = (w + w)[a:a + n]
            shorts.append(_iinv(piece) if rng.random() < 0.3 else piece)
        else:
            shorts.append(_random_word(rng, ngens, n))
    alph = Alphabet(GenSym("x", i) for i in range(1, ngens + 1))
    return Presentation(alph, [alph.decode(_icyc(w)) for w in longs + shorts])


def test_short_reducers_match_reference():
    rng = random.Random(909)
    found = exact = 0
    outcomes = set()
    for _ in range(200):
        sim = _Simplifier(_short_reducer_presentation(rng), 20000, frozenset())
        reducers = sim._admit(sim.rels)
        plain = [s.word for s in reducers]
        for j, r in enumerate(plain):
            arcs = sim._collect_arcs(j, r, reducers)
            assert arcs == reference_arcs(j, r, plain), (plain, j)
            found += bool(arcs)
            # for |s| < _WINDOWS the windows pass exactly when the walk
            # finds a candidate
            target = _enc(r + r)
            for i, s in enumerate(plain):
                if i != j and len(s) < _WINDOWS and len(s) <= len(r):
                    passes = any(p in target for p in _pieces(s))
                    assert passes == bool(reference_arcs(-1, r, [s])), (s, r)
                    outcomes.add((len(s), passes))
                    exact += 1
    assert found > 150 and exact > 500
    # every length below the constant met both a passing and a failing target
    assert outcomes == {(n, b) for n in range(1, _WINDOWS) for b in (False, True)}


def test_short_reducer_runs_match_reference(monkeypatch):
    # below _WINDOWS letters a run is taken, forward only, from each anchor
    # whose letter before disagrees on its diagonal: the run lists must be the
    # earlier routine's, which sorts every anchor and extends the first on
    # each run both ways
    real = presentation._diagonal_runs
    checked = []

    def checking(target, end, s):
        runs = real(target, end, s)
        if len(s.word) < _WINDOWS:
            assert runs == reference.diagonal_runs(target, end, s), (s.word, target, end)
            checked.append(len(runs))
        return runs

    monkeypatch.setattr(presentation, "_diagonal_runs", checking)
    pipe = pipeline.Pipeline()           # every stage of k = 1..8, Pi' included
    for k in range(1, 9):
        pipe.run(k)
    assert len(checked) > 800 and sum(checked) > 4000, (len(checked), sum(checked))
    # seeded reducers of 1 to 15 letters, proper powers among them, against
    # targets that hold windows of s or s^-1 up to three turns long
    rng = random.Random(15)
    alph = Alphabet(GenSym("x", i) for i in range(1, 4))
    fixed = [(1, 2) * 3, (1,) * 5, (1, -2) * 7, (2, 1, 3) * 5]
    inverse = longer = powers = 0
    for case in range(3000):
        n = rng.randint(1, _WINDOWS - 1)
        roots = [m for m in range(1, n) if n % m == 0]
        if case < len(fixed):
            s = fixed[case]
        elif roots and rng.random() < 0.4:
            m = rng.choice(roots)
            s = _reduced_word(rng, 3, m) * (n // m)
        else:
            s = _reduced_word(rng, 3, n)
        n = len(s)
        u = rng.choice((s, _iinv(s)))
        a = rng.randrange(n)
        window = (u * 4)[a:a + rng.randint(n // 2 + 1, 3 * n)]
        r = _icyc(_random_word(rng, 3, rng.randint(0, 4)) + window
                  + _random_word(rng, 3, rng.randint(0, 4)))
        if len(r) < n:
            continue
        sim = _Simplifier(Presentation(alph, []), 20000, frozenset())
        rec = sim._admit([r, s])[1]
        target, end = _enc(r + r), len(r) + n - 1
        runs = real(target, end, rec)
        assert runs == reference.diagonal_runs(target, end, rec), (s, r)
        inverse += any(y >= 2 * n for _, y, _ in runs)
        longer += any(b - a > n for a, _, b in runs)
        powers += bool(runs) and rec.period < n
    assert inverse > 1000 and longer > 1500 and powers > 700, (inverse, longer, powers)


def test_inverse_half_complements_match_reference():
    # a match in the s^-1 half reads its complement from s (letter i of s^-1
    # is -s[~i]); with one letter per generator, a window of s^-1 occurs
    # nowhere in s + s, so the planted window's arc comes from the s^-1 half
    rng = random.Random(16)
    planted = 0
    for _ in range(600):
        n = rng.randint(3, 30)
        s = tuple(g * rng.choice((1, -1)) for g in rng.sample(range(1, n + 1), n))
        inverse = _iinv(s) * 2
        a, cut = rng.randrange(n), rng.randint(n // 2 + 1, n - 1)
        r = _icyc(_random_word(rng, n, rng.randint(0, 6)) + inverse[a:a + cut]
                  + _random_word(rng, n, rng.randint(0, 6)))
        if len(r) < n:
            continue
        alph = Alphabet(GenSym("x", i) for i in range(1, n + 1))
        sim = _Simplifier(Presentation(alph, []), 20000, frozenset())
        arcs = sim._collect_arcs(0, r, sim._admit([r, s]))
        assert arcs == reference_arcs(0, r, [r, s]), (r, s)
        planted += (cut, inverse[a + cut:a + n]) in [(c, rest) for _, c, rest in arcs]
    assert planted > 250, planted


def _reduced_word(rng, ngens, length):
    """A cyclically reduced random word of ``length`` letters."""
    w = []
    while len(w) < length:
        l = rng.choice((1, -1)) * rng.randint(1, ngens)
        if not w or l != -w[-1] and (len(w) < length - 1 or l != -w[0]):
            w.append(l)
    return tuple(w)


def _long_presentation(rng):
    """Relators of _LONG letters and more, glued from shared chunks as
    _random_presentation glues them: powers u^n and u^n v, which overlap
    themselves on many diagonals, so that the first of several occurrences
    decides a complement, u^m w with u^m longer than half of such a reducer,
    chunks read backwards, so that matches fall in the s^-1 half, and a
    relator holding more than one turn of another."""
    ngens = rng.randint(2, 4)
    chunks = [_reduced_word(rng, ngens, rng.randint(1, 40)) for _ in range(rng.randint(0, 2))]
    chunks.append(_reduced_word(rng, ngens, rng.randint(30, 40)))
    rels = []
    for _ in range(rng.randint(2, 5)):
        u = rng.choice(chunks)
        kind = rng.random()
        if kind < 0.25:                  # u^n
            w = u * (_LONG // len(u) + rng.randint(0, 3))
        elif kind < 0.4:                 # u^n v
            w = u * (_LONG // len(u) + 1) + rng.choice(chunks)
        elif kind < 0.5:                 # u^m w, one power below u^n v
            w = u * (_LONG // len(u)) + _reduced_word(rng, ngens, 40)
        elif kind < 0.6 and rels:        # more than one turn of an earlier relator
            s = rng.choice(rels)
            w = s + s[:rng.randint(1, len(s))] + _reduced_word(rng, ngens, rng.randint(1, 9))
        else:
            w = ()
            while len(w) < _LONG * rng.choice((1, 1, 2)):
                c = rng.choice(chunks)
                w += c if rng.random() < 0.6 else _iinv(c)
                if rng.random() < 0.3:
                    w += _reduced_word(rng, ngens, rng.randint(1, 3))
        if _icyc(w):
            rels.append(_icyc(w))
    alph = Alphabet(GenSym("x", i) for i in range(1, ngens + 1))
    return Presentation(alph, [alph.decode(w) for w in rels])


def _power_presentation(rng, root_len):
    """A proper power s = u^e of a primitive root u of ``root_len`` letters (G^m
    and s^m of the orbifold stage for one letter, (uv)^e for two), next to
    relators that hold rotated powers of u, or of u^-1, so that matches fall in
    either half of T, among other letters."""
    ngens = rng.randint(2, 3)
    u = ()
    while not u or _period(u) < root_len:
        u = _reduced_word(rng, ngens, root_len)
    e = rng.randint(2, 60 if root_len == 1 else 24 // root_len + 2)
    rels = [u * e]
    for _ in range(rng.randint(2, 4)):
        m = rng.randint(e // 2, e + 3)
        a = rng.randrange(root_len)
        power = (u * (m + 1))[a:a + m * root_len]
        if rng.random() < 0.4:
            power = _iinv(power)
        w = power + _reduced_word(rng, ngens, rng.randint(1, 12))
        if rng.random() < 0.3:
            w += _iinv(power)[:rng.randint(1, len(power))]
        if _icyc(w):
            rels.append(_icyc(w))
    alph = Alphabet(GenSym("x", i) for i in range(1, ngens + 1))
    return Presentation(alph, [alph.decode(w) for w in rels])


def test_long_reducers_match_reference():
    # every reducer takes cyclic diagonal runs: long ones, and proper powers,
    # whose pieces recur with the period of the root, must give the arcs and
    # the simplifications of the plain reference
    rng = random.Random(4242)
    cases = [_long_presentation(rng) for _ in range(60)]
    alph = Alphabet(GenSym("x", i) for i in range(1, 4))
    for _ in range(10):
        # u^2 occurs twice in u^3 v: its first place in T decides the complement
        u = _reduced_word(rng, 3, rng.randint(30, 40))
        v, w = _reduced_word(rng, 3, rng.randint(1, 20)), _reduced_word(rng, 3, 60)
        cases.append(Presentation(alph, [alph.decode(_icyc(x)) for x in (u * 3 + v, u * 2 + w)]))
    cases += [_power_presentation(rng, root_len) for root_len in (1, 2, 3, 5) for _ in range(15)]
    found = long_arcs = 0
    powers = {}                          # root length -> pairs of a power and a target with arcs
    inverse_half = 0                     # such pairs with a match in the s^-1 half
    for case, p in enumerate(cases):
        sim = _Simplifier(p, 20000, frozenset())
        reducers = sim._admit(sim.rels)
        plain = [s.word for s in reducers]
        for j, r in enumerate(plain):
            arcs = sim._collect_arcs(j, r, reducers)
            assert arcs == reference_arcs(j, r, plain), (plain, j)
            found += bool(arcs)
            long_arcs += any(len(c) + cut >= _LONG for _, cut, c in arcs)
            # each proper power against r alone, on a fresh call
            for i, s in enumerate(plain):
                if i == j or len(s) > len(r) or _period(s) == len(s):
                    continue
                pair = _Simplifier(p, 20000, frozenset())
                arcs = pair._collect_arcs(0, r, pair._admit([r, s]))
                assert arcs == reference_arcs(0, r, [r, s]), (r, s)
                if arcs:
                    powers[_period(s)] = powers.get(_period(s), 0) + 1
                    inverse_half += any(
                        fend > 2 * len(s) and 2 * len(s) > 2 * l > len(s)
                        for _, l, fend in _walk(_automaton(s), _enc(r + r)))
        if case % 3 == 0:
            assert tietze_simplify(p) == _reference_simplify(p), p
    assert found > 40 and long_arcs > 20   # the comparison is not vacuous
    # one-letter roots, (uv)^e and longer roots, with matches in both halves
    assert all(powers.get(n, 0) > 10 for n in (1, 2, 3, 5)), powers
    assert inverse_half > 10, inverse_half


def test_halves_keep_their_own_diagonals():
    # s = x2' x1' x2' x1 x1 and its inverse agree at one offset, so runs of both
    # halves lie on one diagonal offset mod |s|: the run found in one half must
    # not hide the anchors of the other, which here make the second arc
    r, s = (1, 2, -1, 2, 1, 1, -2), (-2, -1, -2, 1, 1)
    alph = Alphabet(GenSym("x", i) for i in range(1, 3))
    sim = _Simplifier(Presentation(alph, [alph.decode(w) for w in (r, s)]), 20000, frozenset())
    arcs = sim._collect_arcs(0, r, sim._admit([r, s]))
    assert arcs == reference_arcs(0, r, [r, s]) == [(0, 3, (-1, 2)), (4, 3, (-1, -2))]
    # targets that follow s^-1 from some offset and then s from the same one
    rng = random.Random(1)
    for _ in range(3000):
        n = rng.randint(2, 12)
        s = _reduced_word(rng, 2, n)
        o = rng.randrange(n)
        head = (_iinv(s) * 2)[o:o + rng.randint(1, n)]
        tail = (s * 3)[o + len(head):o + len(head) + rng.randint(1, 2 * n)]
        r = _icyc(_random_word(rng, 2, rng.randint(0, 3)) + head + tail
                  + _random_word(rng, 2, rng.randint(0, 3)))
        if len(r) >= n:
            sim = _Simplifier(Presentation(alph, [alph.decode(w) for w in (r, s)]), 20000,
                              frozenset())
            assert sim._collect_arcs(0, r, sim._admit([r, s])) == reference_arcs(0, r, [r, s])


def test_nearly_periodic_reducers_keep_few_anchors():
    # a reducer u^m v that nearly repeats a short word u, against a long run of
    # u or u^-1: every pair of a place in the target and one in T would make
    # about |target| (m - |s|/2) anchors; one per stretch of periodic places on
    # either side leaves about one per place, and the arcs stay the reference's
    alph = Alphabet(GenSym("x", i) for i in range(1, 4))
    cases = [((1,), 200, (2, 2), (1,), 3000, (2, 2)),      # a^200 b^2 against a^3000 b^2
             ((1,), 15, (2,), (1,), 3000, ()),             # a^15 b against a^3000
             ((1, 2), 100, (3,), (1, 2), 1500, ()),
             ((1, 2, 1, 3), 40, (2,), (1, 2, 1, 3), 700, (2, 2)),
             ((1,), 200, (2, 2), (-1,), 3000, (2,)),       # matches in the s^-1 half
             ((1, 2), 100, (3,), (-2, -1), 1500, (3,))]
    for u, m, v, target_root, e, tail in cases:
        s, r = u * m + v, target_root * e + tail
        sim = _Simplifier(Presentation(alph, [alph.decode(w) for w in (r, s)]), 20000,
                          frozenset())
        reducers = sim._admit([r, s])
        rec, target, end = reducers[1], _enc(r + r), len(r) + len(s) - 1
        anchors = presentation._anchors(target, end, rec)
        pairs = sum(len(presentation._places(piece, target, 0, end)) * len(ys)
                    for piece, (q, ys, firsts) in zip(rec.pieces, rec.places))
        assert len(anchors) <= 2 * end and 4 * len(anchors) < pairs, (s, r)
        arcs = sim._collect_arcs(0, r, reducers)
        assert arcs and arcs == reference_arcs(0, r, [r, s]), (s, r)


def test_piece_periods_and_first_places():
    # _piece_places gives a piece its least period q when 2 q <= |piece|
    # (else 0), its places in T within one period per half, and those whose
    # place q letters before, read cyclically in the half, is none
    rng = random.Random(8)
    periodic = 0
    for _ in range(400):
        u = _reduced_word(rng, 2, rng.randint(1, 4))
        s = _icyc(u * rng.randint(1, 30) + _reduced_word(rng, 2, rng.randint(0, 6)))
        if not s:
            continue
        sim = _Simplifier(Presentation(Alphabet(GenSym("x", i) for i in (1, 2)), []),
                          20000, frozenset())
        rec = sim._admit([s])[0]
        n, p = len(s), _period(s)
        assert rec.period == p
        for piece in rec.pieces:
            q, ys, firsts = presentation._piece_places(piece, rec.both, n, rec.period)
            w = len(piece)
            least = next(t for t in range(1, w + 1) if piece[t:] == piece[:w - t])
            assert q == (least if 2 * least <= w else 0), (s, piece)
            periodic += q > 0
            halves = [rec.both[base:base + 2 * n] for base in (0, 2 * n)]
            cyclic = [[c for c in range(p) if h[c:c + w] == piece] for h in halves]
            assert ys == [base + c for base, cs in zip((0, 2 * n), cyclic) for c in cs]
            expected = [base + c for base, cs in zip((0, 2 * n), cyclic) for c in cs
                        if not q or (c - q) % p not in cs]
            assert firsts == expected, (s, piece)
    assert periodic > 1000


def test_pi_prime_simplification_peak_memory():
    # every reducer of Pi' matches by diagonal runs: with a suffix automaton
    # for every reducer, this call's traced peak was 15.6 MiB
    p = pi_prime()
    tracemalloc.start()
    try:
        tietze_simplify(p, protect=full_alphabet())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_records_die_with_their_call():
    # a clean scan notes the value it left out, not its record, so no record
    # refers to itself and reference counting frees them all on return
    p = pi_prime()
    gc.collect()
    gc.disable()
    try:
        tietze_simplify(p, protect=full_alphabet())
        alive = sum(isinstance(o, presentation._Relator) for o in gc.get_objects())
    finally:
        gc.enable()
    assert alive == 0


def test_rescan_meets_a_duplicate_of_its_owner():
    # r is scanned clean while it owns slot 0, so it left itself out; on the
    # rescan another value owns slot 0 and a copy of r sits in slot 2, which
    # was never tested against r and reduces it to the empty word
    r, a, x = (1, 2, 1, 2, -1), (3, 3), (1, 3, 1, 3)
    alph = Alphabet(GenSym("x", i) for i in range(1, 4))
    sim = _Simplifier(Presentation(alph, [alph.decode(w) for w in (r, a, x)]), 20000,
                      frozenset())
    first = sim._admit([r, a])
    assert sim._collect_arcs(0, r, first) == [] == reference_arcs(0, r, [r, a])
    second = sim._admit([x, a, r])
    arcs = sim._collect_arcs(0, r, second)
    assert arcs == reference_arcs(0, r, [x, a, r]) == [(0, len(r), ())]


def test_walk_cutoff_lemma():
    # a candidate recorded at i >= L + |s| - 1 repeats the one recorded at i - L:
    # same start mod L, cut and complement (the reducer is the walked one)
    rng = random.Random(11)
    repeats = 0
    for _ in range(2000):
        ngens = rng.randint(1, 3)
        r = _icyc(_random_word(rng, ngens, rng.randint(1, 16)))
        s = _icyc(_random_word(rng, ngens, rng.randint(1, 16)))
        if not r or not s or len(s) > len(r):
            continue
        L, slen = len(r), len(s)
        recorded = {}
        for i, l, fend in _walk(_automaton(s), _enc(r + r)):
            cut = min(l, slen)
            if 2 * cut > slen:
                recorded[i] = ((i - cut + 1) % L, cut, _complement(s, fend, cut))
        for i, cand in recorded.items():
            if i >= L + slen - 1:
                assert recorded.get(i - L) == cand, (r, s, i)
                repeats += 1
    assert repeats > 1000


def test_random_simplifications_match_reference():
    rng = random.Random(77)
    for _ in range(150):
        p = _random_presentation(rng)
        budget = rng.choice((3, 40, 20000))
        assert tietze_simplify(p, budget) == _reference_simplify(p, budget)


def test_pipeline_stages_match_reference(monkeypatch):
    calls = []
    real = pipeline.tietze_simplify

    def recording(p, budget=20000, protect=(), *, eliminate_short=False):
        result = real(p, budget, protect, eliminate_short=eliminate_short)
        calls.append((p, budget, tuple(protect), eliminate_short, result))
        return result

    monkeypatch.setattr(pipeline, "tietze_simplify", recording)
    pipe = pipeline.Pipeline()           # Pi', the Z/2 parent, the Z/2 cover
    for k in (1, 2, 3):
        pipe.orbifold(k)
    assert len(calls) == 6
    assert calls[0][0] == pipe.pi_prime
    # the elimination phase runs on the orbifold stages alone
    assert [call[3] for call in calls] == [False] * 3 + [True] * 3
    rewrites = short = 0
    for p, budget, protect, eliminate_short, (result, log) in calls:
        ref_result, ref_log = _reference_simplify(p, budget, protect, eliminate_short)
        assert log == ref_log, repr(p)
        assert result == ref_result == log.replay(p), repr(p)
        # the guarded oracle asserts the engine's invariants at every rewrite
        guarded_result, guarded_log, sim = _guarded_simplify(p, budget, protect, eliminate_short)
        assert (guarded_result, guarded_log) == (result, log), repr(p)
        rewrites += sim.rewrites
        if eliminate_short:              # the orbifold stages without the phase too
            plain = tietze_simplify(p, budget, protect)
            assert plain == _reference_simplify(p, budget, protect), repr(p)
            assert plain == _guarded_simplify(p, budget, protect)[:2], repr(p)
            assert result.total_length() <= plain[0].total_length(), repr(p)
            short += log.moves != plain[1].moves
    assert rewrites > 100 and short == 3


def test_guarded_oracle_matches_at_every_budget():
    # budgets from 1 to past the moves of an unbounded run cut the run inside
    # normalizations, rewrite pairs and eliminations alike, with the
    # elimination phase off and on
    rng = random.Random(18)
    runs, rewrites, eliminations, exhausted, earlier = ([0, 0] for _ in range(5))
    changed = 0                          # presentations whose log the phase changes
    for _ in range(80):
        ngens = rng.randint(2, 4)
        alph = Alphabet(GenSym("x", i) for i in range(1, ngens + 1))
        p = Presentation(alph, [alph.decode(_icyc(_random_word(rng, ngens, rng.randint(1, 14))))
                                for _ in range(rng.randint(2, 7))])
        for short in (False, True):
            spent = len(_guarded_simplify(p, eliminate_short=short)[2].moves)
            for budget in range(1, spent + 3):
                result, log, sim = _guarded_simplify(p, budget, eliminate_short=short)
                got = tietze_simplify(p, budget, eliminate_short=short)
                assert got == (result, log), (p, budget, short)
                runs[short] += 1
                rewrites[short] += sim.rewrites
                eliminations[short] += sum(mv.kind == "eliminate-generator" for mv in log.moves)
                exhausted[short] += log.exhausted
                # the engine's last state is the result unless the best came earlier
                earlier[short] += len(log.moves) < len(sim.moves)
        changed += tietze_simplify(p)[1] != tietze_simplify(p, eliminate_short=True)[1]
    assert runs[0] > 1000 and rewrites[0] > 3000 and eliminations[0] > 500, (runs, rewrites)
    assert exhausted[0] > 500 and earlier[0] > 50, (exhausted, earlier)
    # the phase shortens the runs: floors at about four fifths of what they reach
    assert runs[1] > 500 and rewrites[1] > 1200 and eliminations[1] > 550, (runs, rewrites)
    assert exhausted[1] > 350 and earlier[1] > 200 and changed > 40, (exhausted, earlier, changed)


def test_rescan_meets_a_value_that_came_back():
    # v leaves the reducer list, r is scanned clean without it, and v comes
    # back: it must be born again, or the rescan of r would skip it
    r, v, x = (1, 2, 1, 2, -1), (2, 1, 2), (3, 3)
    alph = Alphabet(GenSym("x", i) for i in range(1, 4))
    sim = _Simplifier(Presentation(alph, [alph.decode(w) for w in (r, v, x)]), 20000,
                      frozenset())
    sim._admit([r, v])
    assert sim._collect_arcs(0, r, sim._admit([r, x])) == []
    arcs = sim._collect_arcs(0, r, sim._admit([r, x, v]))
    assert arcs and arcs == reference_arcs(0, r, [r, x, v])


# sha256 prefixes of repr((log.moves, log.exhausted)), recorded before the
# shortener kept its rescan state; every log must stay byte-identical
_STAGE_LOGS = ("344aa1c34215005c", "34f2c35e1a1556ac", "468dbc63446313b0")
_ORBIFOLD_LOGS = {1: "1968f7d83494dea0", 2: "7d1b7d592e672dd6", 3: "0f583a9770b9d763",
                  20: "b88b72d945098084"}  # k = 20: 853 moves, 62 eliminations
# the orbifold stage as the pipeline runs it, with the elimination phase
_ORBIFOLD_SHORT_LOGS = {1: "1aef9149f29b6b53", 2: "e384ef60a61875ac", 3: "5921fd0ad71da8de",
                        20: "1e1b7570e422b1c7"}  # k = 20: 471 moves, 62 eliminations
_QUOTIENT_LOG = "e6e251545cb4a57c"  # no moves: T(k) is enumerated as it is


def _log_digest(log):
    return hashlib.sha256(repr((log.moves, log.exhausted)).encode()).hexdigest()[:16]


def test_tietze_logs_match_recorded_digests(monkeypatch):
    logs = []
    real = pipeline.tietze_simplify

    def recording(p, budget=20000, protect=(), *, eliminate_short=False):
        result = real(p, budget, protect, eliminate_short=eliminate_short)
        logs.append(result[1])
        return result

    monkeypatch.setattr(pipeline, "tietze_simplify", recording)
    pipe = pipeline.Pipeline()           # Pi', the Z/2 parent, the Z/2 cover
    assert tuple(_log_digest(log) for log in logs) == _STAGE_LOGS
    for k in _ORBIFOLD_LOGS:
        logs.clear()
        orb = pipe.orbifold(k)
        assert [_log_digest(log) for log in logs] == [_ORBIFOLD_SHORT_LOGS[k]], k
        # the same stage without the elimination phase, as recorded before it
        assert _log_digest(tietze_simplify(orb.raw)[1]) == _ORBIFOLD_LOGS[k], k
        m = k + 1
        t_k = add_relators(pipe.z2_parent, [Word.gen(GAMMA) ** m,
                                            pipe.z2.gens.backmap[SIGMA] ** m])
        simplified, log = tietze_simplify(t_k, protect=full_alphabet())
        assert _log_digest(log) == _QUOTIENT_LOG and simplified == t_k, k


def test_stride_piece_test_is_sound():
    # a match with 2 |match| > |s| always contains a whole piece
    rng = random.Random(5)
    qualified = rejected = 0
    for _ in range(3000):
        ngens = rng.randint(1, 3)
        s = _icyc(_random_word(rng, ngens, rng.randint(1, 12)))
        r = _icyc(_random_word(rng, ngens, rng.randint(1, 12)))
        if not s or not r:
            continue
        target = _enc(r + r)
        cuts = [min(l, len(s), len(r)) for _, l, _ in _walk(_automaton(s), target)]
        passes = any(p in target for p in _pieces(s))
        if any(2 * cut > len(s) for cut in cuts):
            qualified += 1
            assert passes, (s, r)
        elif not passes:
            rejected += 1
    assert qualified > 500 and rejected > 100
    # the same for every length n = 1..40, where the stride grows from 1 to 5:
    # targets hold a cyclic window of s or s^-1 of floor(n/2) + 1 to n letters
    for n in range(1, 41):
        qualified = 0
        for _ in range(30):
            s = _reduced_word(rng, 3, n)
            u, a = rng.choice((s, _iinv(s))), rng.randrange(n)
            window = (u + u)[a:a + rng.randint(n // 2 + 1, n)]
            r = _icyc(_random_word(rng, 3, rng.randint(0, 6)) + window
                      + _random_word(rng, 3, rng.randint(0, 6)))
            target = _enc(r + r)
            cuts = [min(l, n, len(r)) for _, l, _ in _walk(_automaton(s), target)]
            if any(2 * cut > n for cut in cuts):
                qualified += 1
                assert any(p in target for p in _pieces(s)), (s, r)
        assert qualified > 20, n
    # every cyclic window of |s|/2 + 1 letters (rounded down) of s or s^-1
    # holds a piece; distinct letters make "holds" a matter of position only
    for n in range(1, 41):
        s = tuple(range(1, n + 1))
        pieces = _pieces(s)
        for e in (_enc(s + s), _enc(_iinv(s) + _iinv(s))):
            for start in range(n):
                window = e[start:start + n // 2 + 1]
                assert any(p in window for p in pieces), (n, start)
    # for |s| < 4 the pieces are the cyclic windows of |s|/2 + 1 letters (rounded down)
    assert set(_pieces((1,))) == {_enc((1,)), _enc((-1,))}
    assert set(_pieces((1, 2))) == {_enc(w) for w in ((1, 2), (2, 1), (-2, -1), (-1, -2))}
    for s in ((1, 2, 1), (1, 2, 3), (1, 1, 1)):
        expected = {_enc((u + u)[a:a + 2]) for u in (s, _iinv(s)) for a in range(3)}
        assert set(_pieces(s)) == expected, s
    # slices of _enc(s + s) and _enc(s^-1 + s^-1) are the encodings of the
    # pieces' own letters, in the same order: windows of floor(n/2) + 2 - k
    # letters at the multiples of the stride k = max(1, floor(n/8))
    for _ in range(500):
        s = _icyc(_random_word(rng, 3, rng.randint(1, 3 * _WINDOWS)))
        n = len(s)
        k = max(1, n // 8)
        spans = [(a, a + n // 2 + 2 - k) for a in range(0, n, k)]
        own = dict.fromkeys(_enc((u + u)[a:b]) for u in (s, _iinv(s)) for a, b in spans)
        assert _pieces(s) == tuple(own), s


def _reference_candidates(r, s):
    """The reference's candidates of the one reducer s on r, one per end i of
    r + r with 2 cut > |s|: (i, start, cut, whether the match is in the s^-1 half)."""
    L, n = len(r), len(s)
    out = []
    for i, l, fend in _walk(_automaton(s), _enc(r + r)):
        cut = min(l, n, L)
        if 2 * cut > n:
            out.append((i, (i - cut + 1) % L, cut, fend > 2 * n))
    return out


def _family_case(rng):
    """A target r and its reducers, planted for one shape of run family:
    one- and two-letter reducers on a two- or three-letter target, a whole
    match of s that wraps round the end of r, windows of s and s^-1 side by
    side, a partial match cut short by the start of r + r, or several whole
    turns of s in a row."""
    ngens = rng.randint(1, 3)
    kind = rng.randrange(5)
    if kind == 0:
        r = _reduced_word(rng, ngens, rng.randint(2, 3))
        reducers = []
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(1, 2)
            if rng.random() < 0.6:
                u, a = rng.choice((r, _iinv(r))), rng.randrange(len(r))
                reducers.append(_icyc((u + u)[a:a + n]) or u[:1])
            else:
                reducers.append(_reduced_word(rng, ngens, n))
        return r, reducers
    s = _reduced_word(rng, ngens, rng.randint(3 if kind == 3 else 2, 8))
    n = len(s)
    o = rng.randrange(n)
    turn = (s + s)[o:o + n]
    if kind == 1:
        k = rng.randint(1, n - 1)
        body = turn[k:] + _random_word(rng, ngens, rng.randint(0, 4)) + turn[:k]
    elif kind == 2:
        body = ()
        for _ in range(rng.randint(2, 4)):
            u, a = rng.choice((s, _iinv(s))), rng.randrange(n)
            body += (u + u)[a:a + rng.randint(n // 2 + 1, n)]
    elif kind == 3:
        body = turn[:rng.randint(n // 2 + 1, n - 1)] + _random_word(rng, ngens, rng.randint(0, 3))
    else:
        body = turn * rng.randint(2, 5) + _random_word(rng, ngens, rng.randint(0, 3))
    extra = [_reduced_word(rng, ngens, rng.randint(1, n)) for _ in range(rng.randint(0, 2))]
    return _icyc(body), [s] + extra


def test_run_families_match_reference_on_planted_shapes():
    # each run's candidates are read lazily, as a partial family (fixed start,
    # falling cut) and a whole family (cut |s|, rising start); at the edges of
    # those families the arcs must still be the per-end reference's
    rng = random.Random(2121)
    alph = Alphabet(GenSym("x", i) for i in range(1, 4))
    seen = dict.fromkeys(("wrap", "halves", "ends", "turns", "same key, both halves"), 0)
    tiny = set()
    for _ in range(3000):
        r, others = _family_case(rng)
        if not r:
            continue
        L, words = len(r), [r] + others
        sim = _Simplifier(Presentation(alph, []), 20000, frozenset())
        assert sim._collect_arcs(0, r, sim._admit(words)) == reference_arcs(0, r, words), words
        for s in others:
            n = len(s)
            if n > L:
                continue
            pair = _Simplifier(Presentation(alph, []), 20000, frozenset())
            arcs = pair._collect_arcs(0, r, pair._admit([r, s]))
            assert arcs == reference_arcs(0, r, [r, s]), (r, s)
            if arcs and n <= 2 and 2 <= L <= 3:
                tiny.add((n, L))
            whole = [start for start, cut, _ in arcs if cut == n]
            seen["wrap"] += any(start + n > L for start in whole)
            seen["turns"] += n > 1 and len(whole) > 2
            cands = _reference_candidates(r, s)
            ends = {i: (start, cut) for i, start, cut, _ in cands}
            seen["ends"] += any(ends.get(i + L) == key for i, key in ends.items())
            spans = [({(start + k) % L for k in range(cut)}, cut, half)
                     for _, start, cut, half in cands]
            seen["halves"] += any(c1 == c2 and h1 != h2 and s1 & s2
                                  for s1, c1, h1 in spans for s2, c2, h2 in spans)
            keys = {(start, cut, half) for _, start, cut, half in cands}
            seen["same key, both halves"] += any((start, cut, not half) in keys
                                                 for start, cut, half in keys)
    # every shape met often; one key never comes from both halves, since a
    # word longer than half a cyclic word cannot meet its inverse in it
    assert tiny == {(1, 2), (1, 3), (2, 2), (2, 3)}, tiny
    assert min(seen["wrap"], seen["halves"], seen["ends"], seen["turns"]) > 20, seen
    assert seen["same key, both halves"] == 0, seen
