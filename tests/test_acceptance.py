"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import random
import time

from braidpi.analysis import smith_normal_form
from braidpi.braid import Braid, act
from braidpi.cli import main
from braidpi.cosets import holds_in, todd_coxeter
from braidpi.curves import verify_persson_configuration
from braidpi.pipeline import A, D, fiber_alphabet, paper_braids
from braidpi.presentation import Presentation
from braidpi.schreier import subgroup_presentation
from braidpi.tietze import tietze_simplify
from braidpi.word_core import GenSym, Word, alphabet

from .test_analysis import ORACLE_CORPUS, det, mat_mul, pres
from .test_schreier import paper_relators_after_cover
from .bruteforce import group_order_by_enumeration
from .reference import backmap_word

FIBER = fiber_alphabet()


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_theorem_reproduction(shared_pipeline):
    pipe = shared_pipeline
    times = []
    for k in range(1, 7):
        t0 = time.perf_counter()
        report = pipe.run(k)
        times.append(time.perf_counter() - t0)
        expected_inv = (4, 4) if k % 2 else (2, 4)
        expected_order = 16 if k % 2 else 8
        assert report.invariants.torsion == expected_inv, (k, report.invariants)
        assert report.invariants.free_rank == 0
        assert report.order == expected_order, (k, report.order)
        assert report.abelian
    assert main(["pipeline", "--all", "--max-k", "6"]) == 0
    _report(1, True,
            "k=1..6 give invariants (4,4)/(2,4) by parity, orders 16/8, abelian "
            f"(per-k seconds: {', '.join(f'{t:.2f}' for t in times)})")


def test_criterion_2_regression_corpus(pipe):
    failures = []
    verdicts = []
    counts = {}
    for k in (1, 2):
        report = pipe.run(k)
        failures += [ident for ident, ok in report.regressions.items() if not ok]
        verdicts += [s for s in report.suspects]
        counts[k] = len(report.regressions)
    ok = not failures and all(
        (not s.printed_holds) and s.corrected_holds and s.printed_refuted_in_abelianization
        for s in verdicts)
    _report(2, ok,
            f"all displayed relations hold in the k=1 ({counts[1]}) and k=2 "
            f"({counts[2]}) finite quotients; suspect (B4 A5)^6 = (B5 A4)^3: "
            f"printed variant fails, exponent-6 variant holds "
            f"(failures: {failures or 'none'})")


def test_criterion_3_braid_action_soundness(pipe):
    rng = random.Random(333)
    b = paper_braids()

    def rand_word(k):
        return Word.of((D[rng.randrange(1, 6)], rng.choice((1, -1))) for _ in range(k))

    def sigma(i, sign=1):
        return Braid.gen(5, i, sign)

    checked = 0
    for _ in range(1000):
        w = rand_word(rng.randrange(1, 9))
        i = rng.randrange(1, 4)
        j = rng.choice([x for x in range(1, 5) if abs(x - i) >= 2])
        assert (act(sigma(i) * sigma(i + 1) * sigma(i), w, FIBER)
                == act(sigma(i + 1) * sigma(i) * sigma(i + 1), w, FIBER))
        assert act(sigma(i) * sigma(j), w, FIBER) == act(sigma(j) * sigma(i), w, FIBER)
        u = rand_word(rng.randrange(1, 6))
        braid = b[rng.choice(list(b))]
        assert act(braid, w * u, FIBER) == act(braid, w, FIBER) * act(braid, u, FIBER)
        checked += 1
    b1inv = b["b1"].inverse()
    printed = {
        1: "d1 d2 d3 d2' d1' d2' d1 d2 d4 d2' d1' d2 d1 d2 d3' d2' d1'",
        2: "d1 d2 d3 d2' d1'",
        3: "d2' d1 d2 d4' d2' d1' d2 d1 d2 d4 d2' d1' d2",
        4: "d2' d1 d2",
        5: "d5",
    }
    from braidpi.cli import parse_word
    for i, text in printed.items():
        assert act(b1inv, Word.gen(D[i]), FIBER) == parse_word(text, FIBER)
    # sixth printed image: (d4 d5) b1^-1 = d1 d2 holds modulo the b+ relation
    image = act(b1inv, Word.gen(D[4]) * Word.gen(D[5]), FIBER)
    assert image == parse_word("d2' d1 d2 d5", FIBER)
    consequence = image * (Word.gen(D[1]) * Word.gen(D[2])).inverse()
    assert holds_in(pipe.quotient(1), consequence)
    assert holds_in(pipe.quotient(2), consequence)
    _report(3, True,
            f"braid relations and product preservation on {checked} random words; "
            "all six printed b1^-1 images verified (the sixth as a consequence)")


def test_criterion_4_reidemeister_schreier_soundness(pipe):
    for n in (2, 3, 5):
        for g in (2, 3):
            names = ["a", "b", "c"][:g]
            free = Presentation(alphabet(*names), [])
            images = {GenSym(nm): (1 if i == 0 else 0) for i, nm in enumerate(names)}
            sub, _ = subgroup_presentation(free, n, images)
            simplified, _ = tietze_simplify(sub)
            assert simplified.relators == ()
            assert len(simplified.alphabet) == n * (g - 1) + 1, (n, g)
    relation = Word.of([(A[2], 1), (A[3], -1), (A[4], 1), (A[5], -1),
                        (A[2], -1), (A[3], 1), (A[4], -1), (A[5], 1)])
    base = backmap_word(pipe.z2.gens, relation)
    assert holds_in(pipe.quotient(1), base)
    assert holds_in(pipe.quotient(2), base)
    _report(4, True,
            "Nielsen-Schreier ranks n(g-1)+1 for n in {2,3,5}, g in {2,3}; "
            "A2 A3' A4 A5' A2' A3 A4' A5 = 1 is a consequence of the double-cover input")


def test_criterion_5_analysis_soundness():
    rng = random.Random(555)
    for _ in range(100):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        m = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert det(u) in (1, -1) and det(v) in (1, -1)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            assert (diag[i + 1] % diag[i] == 0) if diag[i] else diag[i + 1] == 0
    orders = []
    for names, rels, expected, bound in ORACLE_CORPUS:
        p = pres(names, rels())
        tc = todd_coxeter(p).order
        oracle = group_order_by_enumeration(p, bound)
        assert tc == oracle == expected
        orders.append(expected)
    _report(5, True,
            "Smith form identity and divisibility on 100 random matrices; "
            f"Todd-Coxeter matches word enumeration on {len(orders)} groups "
            f"of orders {sorted(set(orders))}")


def test_criterion_6_exact_configuration():
    t0 = time.perf_counter()
    report = verify_persson_configuration()
    dt = time.perf_counter() - t0
    assert len(report.checks) == 10
    failed = [c.item for c in report.checks if not c.passed]
    assert main(["verify-config"]) == 0
    _report(6, not failed,
            f"all 10 exact configuration checks pass in {dt:.2f}s "
            f"(failed: {failed or 'none'})")


def test_criterion_7_step5_order_of_operations(pipe):
    sizes = {}
    for m in (2, 3, 4):
        before = pipe.orbifold(m - 1).raw
        assert before == paper_relators_after_cover(pipe, m), m
        sizes[m] = (len(before.relators), before.total_length())
    _report(7, True,
            "imposing the orbifold relations before vs after the covering "
            "rewrite gives the same presentation for m=2,3,4: "
            f"{', '.join(f'm={m}: {r} relators of length {n}' for m, (r, n) in sizes.items())}")
