import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from braidpi.analysis import (AbelianInvariants, CosetLimitExceeded, abelian_invariants,
                              holds_in, is_abelian, relation_matrix, smith_normal_form,
                              todd_coxeter, trivial_in_abelianization)
from braidpi.cli import parse_presentation
from braidpi.presentation import Presentation
from braidpi.word_core import GenSym, Word, alphabet

from . import reference
from .bruteforce import group_order_by_enumeration

A, B = GenSym("a"), GenSym("b")


def word(*pairs):
    return Word.of(pairs)


def pres(names, rels):
    return Presentation(alphabet(*names), rels)


Z5 = pres(["a"], [word((A, 1)) ** 5])
S3 = pres(["a", "b"], [word((A, 1)) ** 2, word((B, 1)) ** 2,
                       (word((A, 1)) * word((B, 1))) ** 3])


def mat_mul(a, b):
    """Integer matrix product: the oracle side of U M V = D."""
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


def det(m):
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


def test_todd_coxeter_examples():
    assert todd_coxeter(Z5).order == 5
    assert todd_coxeter(S3).order == 6


def test_todd_coxeter_free_group_overflow():
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(pres(["a", "b"], []), max_cosets=50)


def test_todd_coxeter_deterministic():
    t1 = todd_coxeter(S3)
    t2 = todd_coxeter(S3)
    assert t1.cols == t2.cols


def test_todd_coxeter_trivial_group():
    assert todd_coxeter(pres(["a"], [word((A, 1))])).order == 1
    assert todd_coxeter(pres(["a"], [word((A, 1)) ** 2, word((A, 1))])).order == 1
    assert todd_coxeter(pres([], [])).order == 1


def test_table_validates():
    t = todd_coxeter(S3)
    t.validate(S3)
    assert all(col[0] == 0 and all(col[1:]) for col in t.cols)


def test_holds_in():
    t = todd_coxeter(Z5)
    assert holds_in(t, word((A, 1)) ** 5)
    assert holds_in(t, word((A, 1)) ** 10)
    assert not holds_in(t, word((A, 1)) ** 2)
    t3 = todd_coxeter(S3)
    assert holds_in(t3, (word((A, 1)) * word((B, 1))) ** 3)
    assert not holds_in(t3, word((A, 1)) * word((B, 1)))


def test_is_abelian():
    assert not is_abelian(todd_coxeter(S3))
    assert is_abelian(todd_coxeter(Z5))
    z2z2 = pres(["a", "b"], [word((A, 1)) ** 2, word((B, 1)) ** 2,
                             word((A, 1), (B, 1), (A, -1), (B, -1))])
    assert is_abelian(todd_coxeter(z2z2))


C = GenSym("c")

ORACLE_CORPUS = [
    # (names, relator builder, expected order, enumeration bound)
    (["a"], lambda: [word((A, 1)) ** 5], 5, 7),
    (["a"], lambda: [word((A, 1)) ** 12], 12, 14),
    (["a"], lambda: [word((A, 1)) ** 24], 24, 26),
    (["a", "b"], lambda: [word((A, 1)) ** 2, word((B, 1)) ** 2,
                          (word((A, 1)) * word((B, 1))) ** 3], 6, 8),       # S3
    (["a", "b"], lambda: [word((A, 1)) ** 4, word((B, 1)) ** 2,
                          (word((A, 1)) * word((B, 1))) ** 2], 8, 7),       # D4
    (["a", "b"], lambda: [word((A, 1)) ** 6, word((B, 1)) ** 2,
                          (word((A, 1)) * word((B, 1))) ** 2], 12, 8),      # D6
    (["a", "b"], lambda: [word((A, 1)) ** 2, word((B, 1)) ** 2,
                          word((A, 1), (B, 1), (A, -1), (B, -1))], 4, 6),
    (["a", "b"], lambda: [word((A, 1)) ** 4, word((B, 1)) ** 2,
                          word((A, 1), (B, 1), (A, -1), (B, -1))], 8, 7),
    (["a", "b"], lambda: [word((A, 1)) ** 4, word((B, 1)) ** 4,
                          word((A, 1), (B, 1), (A, -1), (B, -1))], 16, 9),
    (["a", "b"], lambda: [word((A, 1)) ** 4, word((A, 1), (A, 1), (B, -1), (B, -1)),
                          word((B, -1), (A, 1), (B, 1), (A, 1))], 8, 8),    # quaternions
    (["a", "b", "c"], lambda: [word((A, 1)) ** 2, word((B, 1)) ** 2, word((C, 1)) ** 2,
                               word((A, 1), (B, 1), (A, -1), (B, -1)),
                               word((A, 1), (C, 1), (A, -1), (C, -1)),
                               word((B, 1), (C, 1), (B, -1), (C, -1))], 8, 6),
    (["a", "b"], lambda: [word((A, 1)) ** 4, word((B, 1)) ** 2,
                          (word((A, 1)) * word((B, 1))) ** 3], 24, 9),      # S4
]


def test_todd_coxeter_against_enumeration_oracle():
    assert len(ORACLE_CORPUS) >= 10
    for names, rels, expected, bound in ORACLE_CORPUS:
        p = pres(names, rels())
        assert todd_coxeter(p).order == expected
        assert group_order_by_enumeration(p, bound) == expected


def test_smith_normal_form_examples():
    d, u, v = smith_normal_form([[4, 0], [0, 4]])
    assert [d[0][0], d[1][1]] == [4, 4]
    d, u, v = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    d, u, v = smith_normal_form([[0]])
    assert d == [[0]]


def _check_snf(m):
    rows, cols = len(m), len(m[0])
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert det(u) in (1, -1) and det(v) in (1, -1)
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    assert all(x >= 0 for x in diag)


def test_smith_normal_form_random():
    rng = random.Random(41)
    for _ in range(100):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        m = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        _check_snf(m)


def _reference_smith_normal_form(m):
    """The earlier routine, with its pivot search written out twice."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [row[:] for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
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
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
            if any(a[i][t] for i in range(t + 1, rows)) \
                    or any(a[t][j] for j in range(t + 1, cols)):
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
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
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


def _benchmark_inputs():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_smith_normal_form_matches_reference():
    inputs = _benchmark_inputs()
    matrices = []
    for seed in (1, 2, 3):
        for call in inputs.groups(seed).calls:
            if call.label.startswith("abelianize U D V"):
                matrices.append(relation_matrix(parse_presentation(call.stdin)))
    assert len(matrices) == 12
    rng = random.Random(43)
    for _ in range(100):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        matrices.append([[rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(cols)]
                         for _ in range(rows)])
    for m in matrices:
        assert smith_normal_form(m) == _reference_smith_normal_form(m)
        _check_snf(m)


# sha256 prefixes of repr(reference.rows(todd_coxeter(p))), recorded on the
# row-major table before relator columns were encoded once per call and
# before tables were kept by column; the tables must stay identical
_QUOTIENT_TABLES = {1: "2aa241448b6dc099", 2: "01598fac1347db50", 3: "7e0d50d1d0a59b1f"}
_ORBIFOLD_TABLES = {1: "4c01279a4e5b7deb", 2: "d505d881033003ad", 3: "c3b844d07118beaa"}
# the orbifold_simplified presentations those tables were recorded on: the
# stage's results before its Tietze run eliminated short-defined generators first
_ORBIFOLD_SIMPLIFIED = {
    1: "< A2_1 A4_1 s_1 | A2_1 s_1' A2_1' s_1', A2_1^4, A2_1 A4_1 A2_1' A4_1', "
       "A2_1 A4_1 A2_1^2 A4_1' A2_1, s_1^2, A4_1 s_1' A4_1 >",
    2: "< A2_2 A4_2 | A2_2^4, A2_2 A4_2 A2_2' A4_2', A2_2 A4_2 A2_2^2 A4_2' A2_2, A4_2^2 >",
    3: "< A2_3 A4_3 | A2_3^4, A2_3 A4_3 A2_3' A4_3', A2_3 A4_3 A2_3^2 A4_3' A2_3, A4_3^-4 >",
}
# and the tables of the stage's results now
_ORBIFOLD_SHORT_TABLES = {1: "a91a147fadb099d7", 2: "d505d881033003ad", 3: "6b17d4c4c0d22bfd"}
_REFLECTION_GROUP_TABLES = {
    1: ("54a74346e5154b2d", "3cd42655d2f99e52", "06ba2cd2d664a970", "f7231cc36fdcd901"),
    2: ("87d638a22a1c6348", "77000a317627b172", "89309121480b879f", "f5736e33d55f54f9"),
    3: ("dfa07be827b57771", "37c3cbaf53a10a2c", "027f6d25a1a5ccd9", "2ca13ca294657587"),
}


def _table_digest(t):
    return hashlib.sha256(repr(reference.rows(t)).encode()).hexdigest()[:16]


def test_coset_tables_match_recorded_digests(pipe):
    for k in (1, 2, 3):
        assert _table_digest(pipe.quotient(k)) == _QUOTIENT_TABLES[k]
        old = todd_coxeter(parse_presentation(_ORBIFOLD_SIMPLIFIED[k]))
        assert _table_digest(old) == _ORBIFOLD_TABLES[k]
        now = todd_coxeter(pipe.orbifold(k).simplified)
        assert _table_digest(now) == _ORBIFOLD_SHORT_TABLES[k]
    inputs = _benchmark_inputs()
    for seed, expected in _REFLECTION_GROUP_TABLES.items():
        tables = [todd_coxeter(parse_presentation(call.stdin))
                  for call in inputs.groups(seed).calls if call.label.startswith("present G(")]
        assert [t.order for t in tables] == [720, 5040, 3840, 1944]
        assert tuple(_table_digest(t) for t in tables) == expected, seed


def test_abelian_invariants_examples():
    p = pres(["a", "b"], [word((A, 1)) ** 4, word((B, 1)) ** 4,
                          word((A, 1), (B, 1), (A, -1), (B, -1))])
    assert abelian_invariants(p) == AbelianInvariants((4, 4), 0)
    p = pres(["a", "b"], [word((A, 1)) ** 4, word((B, 1)) ** 2,
                          word((A, 1), (B, 1), (A, -1), (B, -1))])
    assert abelian_invariants(p) == AbelianInvariants((2, 4), 0)
    assert abelian_invariants(pres(["a", "b"], [])).free_rank == 2
    assert abelian_invariants(Z5) == AbelianInvariants((5,), 0)


def test_order_matches_invariants_for_finite_abelian():
    p = pres(["a", "b"], [word((A, 1)) ** 4, word((B, 1)) ** 4,
                          word((A, 1), (B, 1), (A, -1), (B, -1))])
    t = todd_coxeter(p)
    inv = abelian_invariants(p)
    assert is_abelian(t) and inv.free_rank == 0
    assert t.order == inv.order() == 16


def test_relation_matrix():
    p = pres(["a", "b"], [word((A, 1), (B, -1), (A, 1))])
    assert relation_matrix(p) == [[2, -1]]


def test_trivial_in_abelianization():
    p = pres(["a", "b"], [word((A, 1)) ** 2, word((B, 1)) ** 3])
    assert trivial_in_abelianization(p, word((A, 1)) ** 4)
    assert trivial_in_abelianization(p, word((A, 1)) ** 2 * word((B, 1)) ** 3)
    assert not trivial_in_abelianization(p, word((A, 1)))
    assert not trivial_in_abelianization(p, word((A, 1), (B, 1)))
    free = pres(["a"], [])
    assert trivial_in_abelianization(free, word((A, 1), (A, -1)))
    assert not trivial_in_abelianization(free, word((A, 1)))
