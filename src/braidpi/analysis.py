"""Integer normal forms: the Smith form and abelian invariants.

``smith_normal_form`` diagonalizes an integer matrix by unimodular row
and column operations (smallest-pivot selection with remainder steps),
returning (D, U, V) with U M V = D and d1 | d2 | ...  Arbitrary
precision comes from Python integers.  ``abelian_invariants`` feeds the
exponent-sum matrix of a presentation through it.  Coset enumeration is in
``cosets``.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import NamedTuple, Sequence

from .presentation import Presentation
from .word_core import Word

IntMatrix = list[list[int]]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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

    def pivot_to(t) -> bool:
        # smallest nonzero entry of the trailing block (first in row-major
        # order) to (t, t): it controls coefficient growth; False if none
        pivot = min(((abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols)
                     if a[i][j]), default=None)
        if pivot is None:
            return False
        if pivot[1] != t:
            swap_rows(t, pivot[1])
        if pivot[2] != t:
            swap_cols(t, pivot[2])
        return True

    t = 0
    while t < min(rows, cols) and pivot_to(t):
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
                pivot_to(t)
                continue
            if a[t][t] < 0:
                a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
            # pivot must divide the remaining block, else the chain d1 | d2 fails
            offender = next((i for i in range(t + 1, rows)
                             if any(a[i][j] % a[t][t] for j in range(t + 1, cols))), None)
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    return a, u, v


class AbelianInvariants(NamedTuple):
    """Torsion coefficients in a divisibility chain, plus the free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    def order(self) -> int | None:
        """Group order when finite (free rank 0), else None."""
        return None if self.free_rank else prod(self.torsion)

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "trivial"


def _exponent_row(n: int, code: Sequence[int]) -> list[int]:
    counts = Counter(code)
    return [counts[g] - counts[-g] for g in range(1, n + 1)]


def relation_matrix(p: Presentation) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    return [_exponent_row(len(p.alphabet), c) for c in p.codes]


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
    vec = _exponent_row(len(p.alphabet), p.alphabet.encode(w))
    mat = relation_matrix(p)
    if not mat:
        return all(x == 0 for x in vec)
    d, _, v = smith_normal_form(mat)
    wv = [sum(vec[i] * v[i][j] for i in range(len(vec))) for j in range(len(vec))]
    r = min(len(mat), len(vec))
    return all(x == 0 if j >= r or d[j][j] == 0 else x % d[j][j] == 0
               for j, x in enumerate(wv))
