"""Coset enumeration and integer normal forms.

``todd_coxeter`` runs HLT-style enumeration over the trivial subgroup:
scan-and-fill every relator from every live coset, fill remaining row
entries, and process coincidences through a union-find with full table
repair.  Cosets are numbered in definition order and compacted at the
end, so a given presentation and budget always yield the identical
table.  A complete table is the regular permutation representation; its
size is the group order.

``smith_normal_form`` diagonalizes an integer matrix by unimodular row
and column operations (smallest-pivot selection with remainder steps),
returning (D, U, V) with U M V = D and d1 | d2 | ...  Arbitrary
precision comes from Python integers.  ``abelian_invariants`` feeds the
exponent-sum matrix of a presentation through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import Presentation
from .word_core import Alphabet, Word

IntMatrix = list[list[int]]


class CosetLimitExceeded(RuntimeError):
    """Enumeration hit the coset budget: group possibly infinite, or budget too small."""


class CosetTable:
    """Complete coset table over an alphabet: rows are cosets (1-based),
    columns alternate generator / inverse in alphabet order."""

    def __init__(self, alphabet: Alphabet, rows: list[list[int]]):
        self.alphabet = alphabet
        self.rows = rows  # rows[0] unused; rows[i][2j], rows[i][2j+1] = i . g_j^{+-1}
        self.complete = all(all(e is not None for e in row) for row in rows[1:])

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def _col(self, sym, sign) -> int:
        return 2 * self.alphabet.index(sym) + (0 if sign > 0 else 1)

    def trace(self, coset: int, w: Word) -> int:
        rows = self.rows
        for sym, sign in w:
            coset = rows[coset][self._col(sym, sign)]
        return coset

    def validate(self, p: Presentation | None = None) -> None:
        """Closed table, mutually inverse columns, and relators tracing trivially."""
        n = self.order
        for i in range(1, n + 1):
            for j in range(len(self.alphabet)):
                fwd, bwd = self.rows[i][2 * j], self.rows[i][2 * j + 1]
                if not (1 <= fwd <= n and 1 <= bwd <= n):
                    raise AssertionError(f"table not closed at coset {i}")
                if self.rows[fwd][2 * j + 1] != i or self.rows[bwd][2 * j] != i:
                    raise AssertionError(f"columns not mutually inverse at coset {i}")
        if p is not None:
            for r in p.relators:
                for i in range(1, n + 1):
                    if self.trace(i, r) != i:
                        raise AssertionError(f"relator {r} does not fix coset {i}")


def todd_coxeter(p: Presentation, max_cosets: int = 10**6) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; the table size is the group order.

    Raises CosetLimitExceeded when more than ``max_cosets`` cosets would
    ever be defined (counting ones later merged away).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    ngens = len(p.alphabet)
    ncols = 2 * ngens
    relators = sorted(p.encoded_relators(), key=lambda r: (len(r), r))

    def col(l: int) -> int:
        return 2 * (abs(l) - 1) + (0 if l > 0 else 1)

    table: list[list[int | None] | None] = [None, [None] * ncols]
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

    def define(f: int, c: int) -> int:
        if len(table) - 1 >= max_cosets:
            raise CosetLimitExceeded(f"budget of {max_cosets} cosets exhausted")
        table.append([None] * ncols)
        parent.append(len(table) - 1)
        nu = len(table) - 1
        table[f][c] = nu
        table[nu][c ^ 1] = f
        return nu

    def scan_and_fill(alpha: int, w: tuple[int, ...]) -> None:
        f, i = alpha, 0
        b, j = alpha, len(w) - 1
        while True:
            while i <= j and table[f][col(w[i])] is not None:
                f = find(table[f][col(w[i])])
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][col(w[j]) ^ 1] is not None:
                b = find(table[b][col(w[j]) ^ 1])
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][col(w[i])] = b
                table[b][col(w[i]) ^ 1] = f
                return
            f = define(f, col(w[i]))
            i += 1

    alpha = 1
    while alpha < len(table):
        if find(alpha) != alpha:
            alpha += 1
            continue
        for r in relators:
            scan_and_fill(alpha, r)
            if find(alpha) != alpha:
                break
        if find(alpha) == alpha:
            for c in range(ncols):
                if table[alpha][c] is None:
                    define(alpha, c)
        alpha += 1

    live = [i for i in range(1, len(table)) if find(i) == i]
    renumber = {old: new + 1 for new, old in enumerate(live)}
    rows: list[list[int]] = [None]
    for old in live:
        rows.append([renumber[find(e)] for e in table[old]])
    result = CosetTable(p.alphabet, rows)
    result.validate(p)
    return result


def holds_in(t: CosetTable, w: Word) -> bool:
    """True iff w traces back to itself from every coset (w = 1 in the group,
    for a trivial-subgroup table)."""
    t.alphabet.check_word(w)
    return all(t.trace(c, w) == c for c in range(1, t.order + 1))


def is_abelian(t: CosetTable) -> bool:
    """Do all generator pairs commute in the permutation action of the table?"""
    n = len(t.alphabet)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(1, t.order + 1):
                ab = t.rows[t.rows[c][2 * a]][2 * b]
                ba = t.rows[t.rows[c][2 * b]][2 * a]
                if ab != ba:
                    return False
    return True


# ---------------------------------------------------------------------------
# Smith normal form

def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(D, U, V) with U m V = D diagonal, d1 | d2 | ..., U and V unimodular."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [row[:] for row in m]
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # smallest nonzero pivot controls coefficient growth
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (pivot is None or x < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            # knock row/column down to remainders until the pivot divides them
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
            if any(a[i][t] for i in range(t + 1, rows)) \
                    or any(a[t][j] for j in range(t + 1, cols)):
                # remainders are strictly smaller candidates: re-pick the pivot
                best = (t, t)
                for i in range(t, rows):
                    for j in range(t, cols):
                        x = abs(a[i][j])
                        if x and (a[best[0]][best[1]] == 0 or x < abs(a[best[0]][best[1]])):
                            best = (i, j)
                if best[0] != t:
                    swap_rows(t, best[0])
                if best[1] != t:
                    swap_cols(t, best[1])
                continue
            if a[t][t] < 0:
                negate_row(t)
            # pivot must divide the remaining block, else the chain d1 | d2 fails
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    return a, u, v


@dataclass(frozen=True)
class AbelianInvariants:
    """Torsion coefficients in a divisibility chain, plus the free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    def order(self) -> int | None:
        """Group order when finite (free rank 0), else None."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "trivial"


def relation_matrix(p: Presentation) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    cols = {g: i for i, g in enumerate(p.alphabet)}
    mat = []
    for r in p.relators:
        row = [0] * len(p.alphabet)
        for sym, e in r:
            row[cols[sym]] += e
        mat.append(row)
    return mat


def abelian_invariants(p: Presentation) -> AbelianInvariants:
    ngens = len(p.alphabet)
    mat = relation_matrix(p)
    if not mat:
        return AbelianInvariants((), ngens)
    d, _, _ = smith_normal_form(mat)
    diag = [d[i][i] for i in range(min(len(mat), ngens))]
    torsion = tuple(x for x in diag if x > 1)
    rank = ngens - sum(1 for x in diag if x != 0)
    return AbelianInvariants(torsion, rank)


def trivial_in_abelianization(p: Presentation, w: Word) -> bool:
    """Does w die in the abelianization of p?  Decided exactly through the
    Smith form: w is a Z-combination of relator rows iff (wV) is divisible
    entrywise by the invariant factors."""
    p.alphabet.check_word(w)
    cols = {g: i for i, g in enumerate(p.alphabet)}
    vec = [0] * len(p.alphabet)
    for sym, e in w:
        vec[cols[sym]] += e
    mat = relation_matrix(p)
    if not mat:
        return all(x == 0 for x in vec)
    d, _, v = smith_normal_form(mat)
    wv = [sum(vec[i] * v[i][j] for i in range(len(vec))) for j in range(len(vec))]
    r = min(len(mat), len(vec))
    for j in range(len(vec)):
        dj = d[j][j] if j < r else 0
        if dj == 0:
            if wv[j] != 0:
                return False
        elif wv[j] % dj != 0:
            return False
    return True
