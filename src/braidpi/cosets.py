"""Coset enumeration over the trivial subgroup.

``todd_coxeter`` runs HLT-style enumeration over the trivial subgroup:
scan-and-fill every relator from every live coset, fill remaining row
entries, and process coincidences through a union-find with full table
repair (Holt-Eick-O'Brien 5.1), which clears every entry naming a dead
coset: outside it no live row points at one, so scans need no union-find
lookup.  Each scan first traces the relator forward in one loop, which
closes it when every entry is defined (most scans), and only at an
undefined entry falls back to the two-ended scan from its start, so the
definitions are those of the scan alone.  A generator g with relator g^2
(or g^-2) has one self-inverse column for g and g^-1, as in ACE (Havas
1991): g = g^-1 in the group, so each identification it makes follows
from the relators, and T(k), whose d_i are involutions, defines about a
quarter of the cosets.  Cosets are
numbered in definition order and compacted at the end, so a given
presentation and budget always yield the identical table, of at most
``MAX_TABLE_CELLS`` entries (cosets times columns).  Enumeration works
on rows, so repair frees a dead coset's row at once; the finished
``CosetTable`` is written once by column, one list per signed letter (a
shared column copied into both).  A complete table is the regular
permutation representation; its size is the group order.  It is
certified on whole columns: entries in 1..n (``min``/``max``), inverse
columns undoing generators, and relators, composed as permutations of
all cosets at once, the identity.  Past the budget, ``todd_coxeter`` raises
``presentation.CosetLimitExceeded``.
"""

from __future__ import annotations

from typing import Sequence

from .presentation import CosetLimitExceeded, Presentation
from .word_core import Alphabet, Word

# the most entries (cosets times columns) a coset table may hold: 10^6
# cosets of a 6-generator table fit (about 220 MB at peak)
MAX_TABLE_CELLS = 12 * 10**6


def _col(l: int) -> int:
    """Table column of the signed letter l: generator g (1-based) at 2(g-1),
    its inverse at 2(g-1) + 1, so the inverse of column c is c ^ 1."""
    return 2 * l - 2 if l > 0 else -2 * l - 1


class CosetTable:
    """Complete coset table over an alphabet, kept by column: ``cols[_col(l)][i]``
    is coset i . l for the cosets i = 1..order, and 0 at index 0.  Columns
    alternate generator / inverse in alphabet order.  Enumeration records
    the cosets it ever ``defined`` and the ``coincidences`` it found."""

    defined = coincidences = 0

    def __init__(self, alphabet: Alphabet, order: int, cols: list[list[int]]):
        self.alphabet = alphabet
        self.order = order
        self.cols = cols

    def validate(self, p: Presentation | None = None) -> None:
        """Closed table, mutually inverse columns, and relators tracing trivially."""
        n, cols = self.order, self.cols
        if len(cols) != 2 * len(self.alphabet):
            raise AssertionError(f"{len(cols)} columns for {len(self.alphabet)} generators")
        for c, col in enumerate(cols):
            if len(col) != n + 1 or col[0] or n and not (1 <= min(col[1:]) and max(col) <= n):
                raise AssertionError(f"table not closed in column {c}")
        ident = list(range(n + 1))
        for c in range(0, len(cols), 2):
            # on a closed table, this makes column c a bijection and c + 1 its inverse
            inverse = cols[c + 1]
            if [inverse[x] for x in cols[c]] != ident:
                raise AssertionError(f"columns {c} and {c + 1} not mutually inverse")
        for r in p.relators if p else ():
            if _trace(cols, [_col(l) for l in self.alphabet.encode(r)], n) != ident:
                raise AssertionError(f"relator {r} does not fix every coset")


def _trace(cols: Sequence[list[int]], word: list[int], n: int) -> list[int]:
    """Coset i . w at index i, for every coset at once: the permutation of w."""
    img = list(range(n + 1))
    for c in word:
        col = cols[c]
        img = [col[x] for x in img]
    return img


def todd_coxeter(p: Presentation, max_cosets: int = 10**6) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; the table size is the group order.

    A generator with relator g^2 shares one self-inverse column with g^-1,
    as g^2 = 1 implies; ``validate`` still checks every column pair.

    Raises CosetLimitExceeded when more than ``max_cosets`` cosets would
    ever be defined (counting ones later merged away), or when the table
    would hold more than ``MAX_TABLE_CELLS`` entries.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    ncols = 2 * len(p.alphabet)
    limit = min(max_cosets, MAX_TABLE_CELLS // max(ncols, 1))
    encoded = sorted(p.codes, key=lambda r: (len(r), r))
    # home[c]: the column that letter column c is kept in; a generator with
    # relator g^2 (or g^-2) keeps g^-1 in g's column, its own inverse
    home, inv = list(range(ncols)), [c ^ 1 for c in range(ncols)]
    for r in encoded:
        if len(r) == 2 and r[0] == r[1]:
            c = _col(abs(r[0]))
            home[c + 1] = inv[c] = c
    used = [c for c in range(ncols) if home[c] == c]
    # each relator's columns, and their inverses for the backward scan
    relators = [([home[_col(l)] for l in r], [inv[home[_col(l)]] for l in r]) for r in encoded]

    # table[x][c] = x . c, or 0 while undefined
    table: list[list[int] | None] = [None, [0] * ncols]
    parent = [0, 1]

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    dead: list[int] = []

    def merge(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        dead.append(b)

    def coincidence(a: int, b: int) -> None:
        merge(a, b)
        while dead:
            y = dead.pop()
            row = table[y]
            for c in used:
                d = row[c]
                if not d:
                    continue
                row[c] = 0
                ic = inv[c]
                if table[d][ic] == y:
                    table[d][ic] = 0
                mu, nu = find(y), find(d)
                if table[mu][c]:
                    merge(nu, table[mu][c])
                elif table[nu][ic]:
                    merge(mu, table[nu][ic])
                else:
                    table[mu][c] = nu
                    table[nu][ic] = mu
            table[y] = None              # repaired: no entry names y any more

    def define(f: int, c: int) -> int:
        nu = len(table)
        if nu > limit:
            raise CosetLimitExceeded(f"budget of {max_cosets} cosets exhausted" if limit == max_cosets
                                     else f"{nu} cosets would pass {MAX_TABLE_CELLS} table cells")
        table.append([0] * ncols)
        parent.append(nu)
        table[f][c] = nu
        table[nu][inv[c]] = f
        return nu

    coincidences = 0
    alpha = 1
    while alpha < len(table):
        if parent[alpha] != alpha:
            alpha += 1
            continue
        for fwd, bwd in relators:
            # trace the relator at alpha; a complete trace closes it as the scan would
            f = alpha
            for c in fwd:
                if not (f := table[f][c]):
                    break
            else:
                if f != alpha:
                    coincidences += 1
                    coincidence(f, alpha)
                    if parent[alpha] != alpha:
                        break
                continue
            # else scan and fill it from both ends
            f, i = alpha, 0
            b, j = alpha, len(fwd) - 1
            while True:
                while i <= j and (x := table[f][fwd[i]]):
                    f, i = x, i + 1
                while j >= i and (x := table[b][bwd[j]]):
                    b, j = x, j - 1
                if j <= i:
                    if j == i:  # deduction: the one-letter gap closes the relator
                        table[f][fwd[i]], table[b][bwd[i]] = b, f
                        f = b
                    break
                f, i = define(f, fwd[i]), i + 1
            if f != b:
                coincidences += 1
                coincidence(f, b)
                if parent[alpha] != alpha:
                    break
        if parent[alpha] == alpha:
            row = table[alpha]
            for c in used:
                if not row[c]:
                    define(alpha, c)
        alpha += 1

    live = [i for i in range(1, len(table)) if parent[i] == i]
    renumber = [0] * len(table)
    for new, old in enumerate(live, 1):
        renumber[old] = new
    rows = [table[old] for old in live]
    cols = {c: [0, *[renumber[row[c]] for row in rows]] for c in used}
    result = CosetTable(p.alphabet, len(live),
                        [cols[c] if home[c] == c else cols[home[c]][:] for c in range(ncols)])
    result.defined, result.coincidences = len(table) - 1, coincidences
    del table[:], parent[:], rows[:]
    result.validate(p)
    return result


def holds_in(t: CosetTable, w: Word) -> bool:
    """True iff w traces back to itself from every coset (w = 1 in the group,
    for a trivial-subgroup table)."""
    word = [_col(l) for l in t.alphabet.encode(w)]
    return _trace(t.cols, word, t.order) == list(range(t.order + 1))


def is_regular(t: CosetTable) -> bool:
    """Whether the permutation group of t's columns is regular on its cosets.

    Along a breadth-first spanning tree from coset 1, each generator column
    x gives a map lambda_x with lambda_x(1) = 1.x and lambda_x(j) =
    lambda_x(i).c on each tree edge i --c--> j; the check is lambda_x(i.y) =
    lambda_x(i).y for every coset i and column y.  Then each lambda_x, and
    each composite of them, commutes with the group, and their composites
    move coset 1 to every coset (the group is finite, so each coset is 1.w
    for a word w in the generators alone): a permutation g of the group
    that fixes 1 fixes j = lambda(1) too, as j.g = lambda(1.g) = j.  Cost:
    cosets times columns times generators."""
    n, cols = t.order, t.cols
    seen = [False] * (n + 1)
    seen[1] = True
    order, edges = [1], []              # cosets in breadth-first order, tree edges (i, c, j)
    for i in order:
        for c, col in enumerate(cols):
            j = col[i]
            if not seen[j]:
                seen[j] = True
                order.append(j)
                edges.append((i, col, j))
    if len(order) != n:
        return False
    for x in cols[::2]:                 # the generator columns
        lam = [0] * (n + 1)
        lam[1] = x[1]
        for i, col, j in edges:
            lam[j] = col[lam[i]]
        if any([lam[j] for j in col] != [col[j] for j in lam] for col in cols):
            return False
    return True


def is_abelian(t: CosetTable) -> bool:
    """Do all generator pairs commute in the permutation action of the table?"""
    gens = [Word.gen(g) for g in t.alphabet]
    return all(holds_in(t, x * y * x.inverse() * y.inverse())
               for i, x in enumerate(gens) for y in gens[i + 1:])
