"""Reference implementations that the package's faster routines must match.

The coset-table routines are the earlier HLT enumeration, with a
union-find lookup on every table read, and the per-coset certificate and
tracing loops, all on rows: ``rows[i][c]`` is coset i under column c, and
``rows(t)`` reads a ``CosetTable``'s columns that way.  The backmap
routines push a word at a cover stage down to the parent alphabet by
substituting each Schreier generator's defining word, which is what
tracing a stage's own alphabet on T(k) must agree with; ``stage_table``
builds that stage's own coset table, T(k)'s cosets under its Schreier
generators, on which an entry is traced from every coset.
``substitute`` is the free-group homomorphism those routines and the
letter-by-letter braid action are built on.  ``SuffixAutomaton`` (Blumer et
al., TCS 1985) gives, at each end of a walk, the longest match in its text and
that match's first end there: the Tietze shortener's diagonal runs must agree.
``anchors`` and ``diagonal_runs`` are the shortener's earlier run routine for
every reducer: all anchors in order, each run extended both ways from the
first anchor on it; the runs it takes from short reducers' starts must agree.
``first_occurrences`` keeps the first of the int words equal up to rotation and
inversion by a plain set of canonical keys, with no fingerprints.
``regression_corpus`` is the earlier corpus build, which reads every
orbifold template again for each i, its subscripts written in.
"""

from braidpi import pipeline
from braidpi.cosets import _col
from braidpi.presentation import CosetLimitExceeded, _canon_key
from braidpi.tietze import _piece_places, _places
from braidpi.word_core import GenSym, Word, _iinv, _reduce_into


class MissingImageError(KeyError):
    """A substitution was asked for a symbol with no assigned image."""


def substitute(w: Word, images) -> Word:
    """The image of w under the homomorphism sending each symbol to ``images[symbol]``."""
    out = []
    for sym, sign in w.letters:
        if sym not in images:
            raise MissingImageError(f"no image for {sym}")
        img = images[sym]
        _reduce_into(out, img.letters if sign > 0 else img.inverse().letters)
    return Word(tuple(out))


def canon_key(w):
    """The least rotation of w or of w^-1, by trying them all."""
    return min((u[i:] + u[:i] for u in (w, _iinv(w)) for i in range(len(w))), default=w)


def first_occurrences(words):
    """Indices of the words with no earlier one of the same ``_canon_key``."""
    seen, kept = set(), []
    for i, w in enumerate(words):
        key = _canon_key(w)
        if key not in seen:
            seen.add(key)
            kept.append(i)
    return kept


def anchors(target, end, s):
    """Pairs (x, y) of places of one piece of s in target[:end] and in T, but
    none whose pair q letters before is one too, q the piece's period."""
    if not s.places:
        s.places = tuple(_piece_places(piece, s.both, len(s.word), s.period)
                         for piece in s.pieces)
    pairs = []
    for piece, (q, ys, firsts) in zip(s.pieces, s.places):
        xs = _places(piece, target, 0, end)
        at = set(xs) if q and len(xs) > 1 else ()
        for x in xs:
            pairs += [(x, y) for y in (firsts if x - q in at else ys)]
    return pairs


def diagonal_runs(target, end, s):
    """Sorted maximal runs (start, place, stop) of target[:end] through every
    anchor of the reducer s, each found from its first anchor in sorted order."""
    n, p, both = len(s.word), s.period, s.both
    w = len(s.pieces[0])
    reach = {}
    runs = []
    furthest = 0
    for x, y in sorted(anchors(target, end, s)):
        base = y - y % (2 * n)
        d = (y - base - x) % p
        if x < reach.get(base + d, 0):
            continue
        a, b = x, x + w
        while a and target[a - 1] == both[base + (a - 1 + d) % p]:
            a -= 1
        c = base + (b + d) % p
        if b < furthest <= b + n and target[b:furthest] == both[c:c + furthest - b]:
            b = furthest
        while b < end and target[b] == both[base + (b + d) % p]:
            b += 1
        reach[base + d] = b
        if b > furthest:
            furthest = b
        runs.append((a, base + (a + d) % p, b))
    return sorted(runs)


class SuffixAutomaton:
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


def todd_coxeter_rows(p, max_cosets=10**6):
    """The coset table of p over the trivial subgroup, as ``rows`` reads it."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    ncols = 2 * len(p.alphabet)
    relators = [([_col(l) for l in r], [_col(l) ^ 1 for l in r])
                for r in sorted(p.codes, key=lambda r: (len(r), r))]

    table = [None, [None] * ncols]
    parent = [0, 1]

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    dead = []

    def merge(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        dead.append(b)

    def coincidence(a, b):
        merge(a, b)
        while dead:
            y = dead.pop()
            row = table[y]
            for c in range(ncols):
                d = row[c]
                if d is None:
                    continue
                row[c] = None
                if table[d][c ^ 1] == y:
                    table[d][c ^ 1] = None
                mu, nu = find(y), find(d)
                if table[mu][c] is not None:
                    merge(nu, table[mu][c])
                elif table[nu][c ^ 1] is not None:
                    merge(mu, table[nu][c ^ 1])
                else:
                    table[mu][c] = nu
                    table[nu][c ^ 1] = mu

    def define(f, c):
        if len(table) - 1 >= max_cosets:
            raise CosetLimitExceeded(f"budget of {max_cosets} cosets exhausted")
        table.append([None] * ncols)
        parent.append(len(table) - 1)
        nu = len(table) - 1
        table[f][c] = nu
        table[nu][c ^ 1] = f
        return nu

    def scan_and_fill(alpha, fwd, bwd):
        f, i = alpha, 0
        b, j = alpha, len(fwd) - 1
        while True:
            while i <= j and table[f][fwd[i]] is not None:
                f = find(table[f][fwd[i]])
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][bwd[j]] is not None:
                b = find(table[b][bwd[j]])
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][fwd[i]] = b
                table[b][bwd[i]] = f
                return
            f = define(f, fwd[i])
            i += 1

    alpha = 1
    while alpha < len(table):
        if find(alpha) != alpha:
            alpha += 1
            continue
        for fwd, bwd in relators:
            scan_and_fill(alpha, fwd, bwd)
            if find(alpha) != alpha:
                break
        if find(alpha) == alpha:
            for c in range(ncols):
                if table[alpha][c] is None:
                    define(alpha, c)
        alpha += 1

    live = [i for i in range(1, len(table)) if find(i) == i]
    renumber = {old: new + 1 for new, old in enumerate(live)}
    rows = [None]
    for old in live:
        rows.append([renumber[find(e)] for e in table[old]])
    validate(p.alphabet, rows, p)
    return rows


def rows(t):
    """The rows of a ``CosetTable``: rows[0] unused, rows[i][c] = t.cols[c][i]."""
    return [None, *([col[i] for col in t.cols] for i in range(1, t.order + 1))]


def validate(alphabet, rows, p=None):
    """Closed table, mutually inverse columns, and relators tracing trivially."""
    n = len(rows) - 1
    for i in range(1, n + 1):
        for g in range(1, len(alphabet) + 1):
            fwd, bwd = rows[i][_col(g)], rows[i][_col(-g)]
            if not (1 <= fwd <= n and 1 <= bwd <= n):
                raise AssertionError(f"table not closed at coset {i}")
            if rows[fwd][_col(-g)] != i or rows[bwd][_col(g)] != i:
                raise AssertionError(f"columns not mutually inverse at coset {i}")
    if p is not None:
        for r in p.relators:
            if not holds_in(alphabet, rows, r):
                raise AssertionError(f"relator {r} does not fix every coset")


def holds_in(alphabet, rows, w):
    """True iff w traces back to itself from every coset."""
    cols = [_col(l) for l in alphabet.encode(w)]
    for start in range(1, len(rows)):
        c = start
        for j in cols:
            c = rows[c][j]
        if c != start:
            return False
    return True


def backmap_word(gens, w: Word) -> Word:
    """Expand a word over a cover's Schreier generators into the parent alphabet."""
    return substitute(w, gens.backmap)


def stage_table(gens, parent):
    """``parent``'s cosets under the Schreier generators of ``gens``, each
    acting as its defining word u_r g u_{r+q(g)}^-1 does."""
    cols = parent.cols
    act = {s: (cols[2 * i], cols[2 * i + 1]) for i, s in enumerate(parent.alphabet)}
    ident, reps = list(range(parent.order + 1)), gens.reps
    perm = {(): (ident, ident)}     # each representative's and its inverse's, by prefix
    for u in sorted(reps, key=len)[1:]:
        (sym, sign), (img, inv) = u.letters[-1], perm[u.letters[:-1]]
        fwd, bwd = act[sym][::sign]
        perm[u.letters] = ([fwd[x] for x in img], [inv[x] for x in bwd])
    images = []
    for (r, g), sym in gens.gens.items():   # in the order of gens.alphabet
        if sym is not None:
            ur, ur_inv = perm[reps[r].letters]
            us, us_inv = perm[reps[(r + gens.images[g]) % gens.modulus].letters]
            fwd, bwd = act[g]
            images += ([us_inv[fwd[x]] for x in ur], [ur_inv[bwd[x]] for x in us])
    return type(parent)(gens.alphabet, parent.order, images)


def base_word(pipe, entry, orbifold) -> Word:
    """Push a corpus relation down to the d/G alphabet via the Schreier backmaps."""
    w = entry.relation
    if entry.stage == "orbifold":
        w = backmap_word(orbifold.gens, w)
    if entry.stage in ("orbifold", "z2"):
        w = backmap_word(pipe.z2.gens, w)
    return w


def regression_corpus(k):
    """The corpus with each orbifold template formatted and parsed per i."""
    m = k + 1
    corpus = [e for e in pipeline.regression_corpus(k) if e.stage != "orbifold"]
    seen = set()

    def orbifold(text, rel=None):
        rel = pipeline._printed(text) if rel is None else rel
        rel = Word.of((GenSym(s.name, s.index % m), e) for s, e in rel)
        key = rel.cyclically_reduced().letters
        if key and key not in seen:
            seen.add(key)
            corpus.append(pipeline.CorpusEntry(f"orbifold: {text}", "orbifold", rel))

    for i in range(m):
        for template in pipeline._ORBIFOLD:
            orbifold(template.format(i=i, j=i + 1, even=2 * i % m, odd=(2 * i + 1) % m))
    orbifold("s_0 s_1 ... s_(m-1) = 1", Word.of((GenSym("s_", i), 1) for i in range(m)))
    orbifold("A4_0^(2m) = 1", Word.gen(GenSym("A4_", 0)) ** (2 * m))
    if m % 2:
        orbifold("A4_0^2 = 1 (m odd)")
    orbifold("commutative: A2_0 A4_0 = A4_0 A2_0")
    return corpus
