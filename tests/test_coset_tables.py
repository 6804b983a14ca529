"""The coset-table layer against its reference: the same enumeration process,
the same certificates, the same verdicts."""

import io
import random

import pytest

from braidpi import cli, cosets, pipeline
from braidpi.cosets import holds_in, todd_coxeter
from braidpi.grammar import parse_presentation
from braidpi.pipeline import Pipeline
from braidpi.presentation import CosetLimitExceeded, Presentation
from braidpi.word_core import GenSym, Word, alphabet

from . import reference
from .test_analysis import S3, _benchmark_inputs, pres, word

A = GenSym("a")
BUDGET = 3000


def _random_presentation(rng):
    """Coxeter-like relators (powers, pair products, commutators) and at
    most one random word: finite groups of many sizes, some too large."""
    names = ["a", "b", "c", "d"][:rng.randint(2, 4)]
    syms = [Word.gen(GenSym(n)) for n in names]
    rels = [x ** rng.randint(2, 5) for x in syms]
    for i, x in enumerate(syms):
        for y in syms[i + 1:]:
            rels.append(rng.choice([(x * y) ** rng.randint(2, 4),
                                    x * y * x.inverse() * y.inverse(), Word.identity()]))
    if rng.random() < 0.5:
        rels.append(Word.of((rng.choice(syms).letters[0][0], rng.choice((1, -1)))
                            for _ in range(rng.randint(2, 6))))
    return Presentation(alphabet(*names), rels)


def _outcome(enumerate_, p, budget):
    try:
        return enumerate_(p, budget)
    except CosetLimitExceeded:
        return "overflow"


def _random_cases(count):
    rng = random.Random(808)
    return [_random_presentation(rng) for _ in range(count)]


def test_todd_coxeter_matches_reference_on_random_presentations():
    finished = lower = 0
    for p in _random_cases(450):
        expected = _outcome(reference.todd_coxeter_rows, p, BUDGET)
        table = _outcome(todd_coxeter, p, BUDGET)
        if table == "overflow":
            assert expected == "overflow", p
            continue
        finished += 1
        if expected == "overflow":
            # the shared columns finish where the reference needs a larger budget
            table.validate(p)
            expected = reference.todd_coxeter_rows(p, 10 * BUDGET)
        assert reference.rows(table) == expected, p
        # the least budget that succeeds is the cosets defined, and never
        # above the reference's: it overflows one below that count
        assert _outcome(todd_coxeter, p, table.defined) != "overflow", p
        if table.defined > 1:
            assert _outcome(todd_coxeter, p, table.defined - 1) == "overflow", p
            assert _outcome(reference.todd_coxeter_rows, p, table.defined - 1) == "overflow", p
        lower += _outcome(reference.todd_coxeter_rows, p, table.defined) == "overflow"
    assert finished >= 200 and lower >= 20


def test_holds_in_matches_reference_on_random_words():
    rng = random.Random(809)
    verdicts = []
    for p in _random_cases(60):
        table = _outcome(todd_coxeter, p, BUDGET)
        if table == "overflow":
            continue
        syms = list(p.alphabet)
        words = [r ** rng.randint(1, 2) for r in p.relators]
        words += [Word.of((rng.choice(syms), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, 12))) for _ in range(8)]
        for w in words:
            verdict = holds_in(table, w)
            assert verdict == reference.holds_in(p.alphabet, reference.rows(table), w), (p, w)
            verdicts.append(verdict)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def _s4():
    b = GenSym("b")
    return pres(["a", "b"], [word((A, 1)) ** 4, word((b, 1)) ** 2,
                             (word((A, 1)) * word((b, 1))) ** 3])


@pytest.mark.parametrize("fault,message", [
    ("zero entry", "not closed"),
    ("negative entry", "not closed"),
    ("entry past n", "not closed"),
    ("non-inverse pair", "not mutually inverse"),
    ("involution's inverse column", "not mutually inverse"),
    ("relator moves a coset", "does not fix"),
])
def test_validate_rejects_planted_faults(fault, message):
    p = _s4()
    t = todd_coxeter(p)
    n, cols = t.order, t.cols
    if fault == "zero entry":
        cols[1][5] = 0
    elif fault == "negative entry":
        cols[2][5] = -1
    elif fault == "entry past n":
        cols[0][5] = n + 1
    elif fault == "non-inverse pair":
        cols[0][3], cols[0][4] = cols[0][4], cols[0][3]
    elif fault == "involution's inverse column":
        # b is enumerated in one column, but b^-1 is a list of its own
        b = cols[2][:]
        cols[3][3], cols[3][4] = cols[3][4], cols[3][3]
        assert cols[2] == b
    else:
        # b acts as before and then swaps cosets 1 and 2: the columns stay
        # closed and mutually inverse, but the relators fail
        swap = {1: 2, 2: 1}
        fwd, bwd = cols[2][:], cols[3][:]
        for i in range(1, n + 1):
            cols[2][i] = swap.get(fwd[i], fwd[i])
            cols[3][i] = bwd[swap.get(i, i)]
        reference.validate(t.alphabet, reference.rows(t))   # still a closed permutation table
    with pytest.raises(AssertionError, match=message):
        t.validate(p)
    # the reference walks coset by coset, so it may name another fault first
    with pytest.raises(AssertionError):
        reference.validate(t.alphabet, reference.rows(t), p)


@pytest.mark.parametrize("square", [1, -1], ids=["a^2", "a'^2"])
def test_involution_shares_one_column(square):
    # S3 with both generators involutions: each one's column pair holds
    # equal entries, in two separate lists
    b = GenSym("b")
    p = pres(["a", "b"], [word((A, 1)) ** (2 * square), word((b, -1)) ** 2,
                          (word((A, 1)) * word((b, 1))) ** 3])
    t = todd_coxeter(p)
    assert t.order == 6
    assert reference.rows(t) == reference.todd_coxeter_rows(p)
    for c in (0, 2):
        assert t.cols[c] == t.cols[c + 1] and t.cols[c] is not t.cols[c + 1]


def test_square_only_as_a_consequence_gets_no_shared_column():
    # a^2 = 1 follows from a^4 and a^6 but is no relator: the enumeration is
    # the reference's, down to its least budget
    p = pres(["a"], [word((A, 1)) ** 4, word((A, 1)) ** 6])
    t = todd_coxeter(p)
    assert t.order == 2 and reference.rows(t) == reference.todd_coxeter_rows(p)
    assert _outcome(reference.todd_coxeter_rows, p, t.defined - 1) == "overflow"
    assert _outcome(reference.todd_coxeter_rows, p, t.defined) != "overflow"


def test_quotient_tables_match_reference(pipe, monkeypatch):
    # T(k) row for row as the reference enumerates it, in no more cosets
    calls = []

    def recording(p, max_cosets):
        calls.append((p, todd_coxeter(p, max_cosets)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, "todd_coxeter", recording)
    for k in range(1, 7):
        table = Pipeline.quotient(pipe, k)
        p = calls[-1][0]
        assert reference.rows(table) == reference.todd_coxeter_rows(p), k
        assert _outcome(reference.todd_coxeter_rows, p, table.defined - 1) == "overflow", k


def test_validate_rejects_misshapen_columns():
    # order and columns are given apart, so their shapes are certified too
    t = todd_coxeter(_s4())
    t.cols[2].pop()
    with pytest.raises(AssertionError, match="not closed in column 2"):
        t.validate()
    del t.cols[2]
    with pytest.raises(AssertionError, match="3 columns for 2 generators"):
        t.validate()


def test_table_cell_bound(monkeypatch):
    defined = todd_coxeter(S3).defined
    monkeypatch.setattr(cosets, "MAX_TABLE_CELLS", 4 * defined)
    assert todd_coxeter(S3).order == 6
    monkeypatch.setattr(cosets, "MAX_TABLE_CELLS", 4 * defined - 1)
    with pytest.raises(CosetLimitExceeded, match="table cells"):
        todd_coxeter(S3)
    # the coset budget keeps its own message below the cell bound
    with pytest.raises(CosetLimitExceeded, match="budget of 5 cosets"):
        todd_coxeter(S3, max_cosets=5)


def _cli_text(argv, stdin, monkeypatch, capsys):
    """The presentation a CLI call prints (before any backmap lines)."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert cli.main(argv) == 0
    return capsys.readouterr().out.partition("\n\n")[0]


# cosets defined on the way to each table, the least budget that succeeds:
# the process, not only its result, is pinned
_QUOTIENT_DEFINED = {1: 3239, 3: 3894, 6: 5856}
_GROUPS_DEFINED = {"tc of G(1,1,7)": 6141, "tc of G(2,1,5)": 4535,
                   "tc of kernel mod 2 of G(1,1,8)": 26137}


def test_enumeration_counters_pinned(pipe, monkeypatch, capsys):
    for k, defined in _QUOTIENT_DEFINED.items():
        table = pipe.quotient(k)
        assert table.defined == defined, k
        assert table.coincidences > 0
    calls = _benchmark_inputs().groups(1).calls
    printed = {}
    for i, call in enumerate(calls):
        if call.label in _GROUPS_DEFINED:
            source = calls[call.feeds]
            printed[call.label] = _cli_text(source.argv, source.stdin, monkeypatch, capsys)
    assert set(printed) == set(_GROUPS_DEFINED)
    for label, text in printed.items():
        assert todd_coxeter(parse_presentation(text)).defined == _GROUPS_DEFINED[label], label


def test_is_regular_rejects_tables_of_nontrivial_subgroups():
    # S3 on the three cosets of <a>: a valid table of S3, but a fixes coset 1
    # and moves 2, so a one-coset trace would call a = 1; is_regular says no
    a, b = [0, 1, 3, 2], [0, 2, 1, 3]
    table = cosets.CosetTable(S3.alphabet, 3, [a, a, b, b])
    table.validate(S3)
    assert not cosets.is_regular(table)
    assert holds_in(table, word((A, 1)), regular=True) and not holds_in(table, word((A, 1)))
    # two orbits: not transitive, so not regular either
    swap = [0, 2, 1, 4, 3]
    assert not cosets.is_regular(cosets.CosetTable(S3.alphabet, 4, [swap] * 4))
    for p in (S3, _s4(), pres(["a"], [word((A, 1)) ** 5]), pres(["a"], [word((A, 1))])):
        assert cosets.is_regular(todd_coxeter(p)), p


def test_one_coset_verdicts_read_mutants_false(pipe):
    # T(k) is certified regular; every corpus entry and two mutants of it (a
    # generator appended, the first letter inverted) read the same from
    # coset 1 as from every coset, and the mutants false in the group read false
    false = 0
    for k in (1, 2):
        quotient = pipe.quotient(k)
        assert cosets.is_regular(quotient)
        z2 = pipe.z2.gens.table(quotient)
        tables = {"pi_prime": quotient, "z2": z2, "orbifold": pipe.orbifold(k).gens.table(z2)}
        for e in pipeline.regression_corpus(k):
            table, w = tables[e.stage], e.relation
            (sym, sign), rest = w.letters[0], w.letters[1:]
            for x in (w, w * Word.gen(table.alphabet.symbols[0]),
                      Word.of(((sym, -sign), *rest))):
                verdict = holds_in(table, x, regular=True)
                assert verdict == holds_in(table, x), (k, e.ident, x)
                false += not verdict
    assert false > 100, false
