import hashlib

import pytest

from braidpi import pipeline
from braidpi.analysis import AbelianInvariants, abelian_invariants
from braidpi.cosets import holds_in, is_abelian, todd_coxeter
from braidpi.pipeline import (A, B, D, DELTA, GAMMA, SIGMA, PipelineError, full_alphabet,
                              paper_braids, pi_prime, regression_corpus, run)
from braidpi.presentation import add_relators
from braidpi.word_core import GenSym, Word

from . import reference
from .reference import base_word


def test_paper_braids_shape():
    b = paper_braids()
    assert set(b) == {"b0", "b1", "b-1", "b+", "b-"}
    assert all(braid.strands == 5 for braid in b.values())


def test_pi_prime_raw_relator_count():
    p = pi_prime()
    assert tuple(str(g) for g in p.alphabet) == ("d1", "d2", "d3", "d4", "d5", "G")
    # 30 stabilizer + 5 conjugation relators, 31 after normalization
    assert len(p.relators) == 31


def test_pi_prime_relators_have_zero_exponent_sums():
    for r in pi_prime().relators:
        sums = r.exponent_sums()
        assert sum(sums.values()) == 0            # commutator-like in total
        assert sums.get(GAMMA, 0) == 0            # and balanced in G alone


def test_pi_prime_contains_gamma_d5_commutation():
    # G d5 G' = d5 survives normalization as the commutator relator
    target = (Word.of([(GAMMA, 1), (D[5], 1), (GAMMA, -1), (D[5], -1)])
              .cyclically_reduced())
    candidates = {r.cyclically_reduced().letters for r in pi_prime().relators}
    rotations = {target.letters[k:] + target.letters[:k] for k in range(len(target))}
    inv = target.inverse()
    rotations |= {inv.letters[k:] + inv.letters[:k] for k in range(len(inv))}
    assert candidates & rotations


def test_z2_parent_extends_pi_prime(pipe):
    p = pipe.z2_parent
    squares = [(Word.gen(D[i]) ** 2).letters for i in range(1, 6)]
    present = {r.letters for r in p.relators}
    assert all(s in present for s in squares)


def test_z2_cover_generators_and_backmap(pipe):
    cover, gens = pipe.z2.simplified, pipe.z2.gens
    names = {str(s) for s in gens.alphabet}
    assert {"D", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "G", "s"} == names
    assert gens.backmap[DELTA] == Word.gen(D[1]) ** 2
    assert gens.backmap[SIGMA] == Word.of([(D[1], 1), (GAMMA, 1), (D[1], -1)])
    for i in range(2, 6):
        assert gens.backmap[A[i]] == Word.gen(D[1]) * Word.gen(D[i])
        assert gens.backmap[B[i]] == Word.gen(D[i]) * Word.gen(D[1], -1)
    # protected generators survive simplification
    for sym in (A[2], A[4], GAMMA, SIGMA):
        assert sym in cover.alphabet


def test_step4_rewrite_of_twist_relator(pipe):
    gens = pipe.z2.gens
    lhs = (Word.gen(D[4]) * Word.gen(D[5])) ** 6
    rhs = (Word.gen(D[5]) * Word.gen(D[4])) ** 6
    rewritten = gens.rewrite(lhs * rhs.inverse())
    b4a5 = Word.gen(B[4]) * Word.gen(A[5])
    b5a4 = Word.gen(B[5]) * Word.gen(A[4])
    # the mechanical rewrite is the exponent-6 word, adjudicating the printed
    # exponent-3 variant as a typo
    assert rewritten == b4a5 ** 6 * (b5a4 ** 6).inverse()


def test_step4_relation_from_twist_square(pipe):
    # rewriting (d1...d5)^2 gives A2 B3 A4 B5 D B2 A3 B4 A5; the printed
    # form A2 B3 A4 B5 B2 A3 B4 A5 = 1 drops the D thanks to D = 1
    gens = pipe.z2.gens
    twist = Word.of([(D[i], 1) for i in range(1, 6)]) ** 2
    expected = Word.of([(A[2], 1), (B[3], 1), (A[4], 1), (B[5], 1), (DELTA, 1),
                        (B[2], 1), (A[3], 1), (B[4], 1), (A[5], 1)])
    assert gens.rewrite(twist) == expected


def test_orbifold_generator_names(pipe):
    gens = pipe.orbifold(1).gens
    names = {str(s) for s in gens.alphabet}
    assert {"A2_0", "A2_1", "A4_0", "A4_1", "s_0", "s_1", "Gh"} <= names
    assert gens.backmap[GenSym("Gh")] == Word.gen(GAMMA) ** 2
    assert gens.backmap[GenSym("A2_", 1)] == Word.of(
        [(GAMMA, 1), (A[2], 1), (GAMMA, -1)])
    assert gens.backmap[GenSym("s_", 1)] == Word.of([(GAMMA, 1), (SIGMA, 1)])


@pytest.mark.parametrize("k,invariants,order", [
    (1, (4, 4), 16), (2, (2, 4), 8), (3, (4, 4), 16), (4, (2, 4), 8),
])
def test_orbifold_invariants(pipe, k, invariants, order):
    p = pipe.orbifold(k).simplified
    inv = abelian_invariants(p)
    assert inv.torsion == invariants and inv.free_rank == 0
    table = todd_coxeter(p)
    assert table.order == order
    assert is_abelian(table)


# (generators, relators, total length) of every stage, k-independent ones first
STAGES = {
    "pi_prime": (6, 31, 12038), "pi_prime_simplified": (6, 14, 190),
    "z2_parent": (6, 19, 168), "z2_cover": (11, 32, 292),
    "z2_cover_simplified": (4, 11, 56),
}
ORBIFOLD_STAGES = {
    1: {"orbifold_parent": (4, 13, 60), "orbifold_cover": (7, 24, 108),
        "orbifold_simplified": (2, 4, 18)},
    2: {"orbifold_parent": (4, 13, 62), "orbifold_cover": (10, 35, 158),
        "orbifold_simplified": (2, 3, 10)},
}


@pytest.mark.parametrize("k", [1, 2])
def test_stage_table(pipe, k):
    table = {s.name: (len(s.generators), s.relator_count, s.total_length)
             for s in pipe.run(k).stages}
    assert table == {**STAGES, **ORBIFOLD_STAGES[k]}
    assert list(table) == list(STAGES) + list(ORBIFOLD_STAGES[k])


def test_run_report(pipe):
    report = pipe.run(1)
    assert report.k == 1 and report.m == 2
    assert report.order == 16
    assert report.invariants.torsion == (4, 4)
    assert report.abelian
    assert report.all_regressions_hold
    assert len(report.suspects) == 1
    verdict = report.suspects[0]
    assert not verdict.printed_holds
    assert verdict.corrected_holds
    assert verdict.printed_refuted_in_abelianization
    stage_names = [s.name for s in report.stages]
    assert stage_names[0] == "pi_prime" and "z2_cover" in stage_names
    data = report.to_dict()
    assert data["schema"] == "braidpi/1"
    assert data["invariants"] == [4, 4]
    assert data["suspects"][0]["exponent6Holds"] is True


def test_run_k2_regressions(pipe):
    report = pipe.run(2)
    assert report.order == 8
    assert report.invariants.torsion == (2, 4)
    assert report.all_regressions_hold
    assert not report.suspects[0].printed_holds


def test_run_k20(pipe):
    report = pipe.run(20)
    assert report.m == 21 and report.order == 8
    assert report.invariants.torsion == (2, 4) and report.invariants.free_rank == 0
    assert report.abelian and report.all_regressions_hold
    verdict = report.suspects[0]
    assert not verdict.printed_holds and verdict.corrected_holds
    assert verdict.printed_refuted_in_abelianization


def test_index_law_mismatch_fails_the_run(monkeypatch):
    # T(k+1) has 2 (m+1) |G| cosets, not 2 m |G|
    pipe = pipeline.Pipeline()
    real = pipe.quotient
    monkeypatch.setattr(pipe, "quotient", lambda k, max_cosets: real(k + 1, max_cosets))
    with pytest.raises(PipelineError, match=r"T\(1\)"):
        pipe.run(1)


def test_finite_quotient_orders(pipe):
    # |T(k)| = 2 m |final group|
    assert pipe.quotient(1).order == 2 * 2 * 16 == 64
    assert pipe.quotient(2).order == 2 * 3 * 8 == 48


def test_regression_corpus_shape():
    corpus = regression_corpus(1)
    idents = [e.ident for e in corpus]
    assert len(idents) == len(set(idents))
    suspects = [e for e in corpus if e.suspect]
    assert len(suspects) == 1
    stages = {e.stage for e in corpus}
    assert stages == {"pi_prime", "z2", "orbifold"}


# sha256 of repr([(ident, stage, relation letters, suspect, note)]) of the
# corpus as built word by word, before it was read from the printed text;
# since then only the third printed form of the conjugated b- relation
# changed, from the empty word to the b1^-1 action it displays
CORPUS_SHA256 = {
    1: "7ddc71e4ecb4c342a9a6344e324c62f3964cda5a9c750ac47e9214576fa8373d",
    2: "3551c43d9f5d81941b5cb8da47c976bc29eb5d5c31e975c22254ff30fd52c1ba",
    3: "3d404178ca0ce8cd788da9af199bea87459ce1471b450a3b654e094556d3b026",
    4: "eea6f4375334c192c7033ce6f5d13429b3f2213d6b3a9e80fd3ac04cb951b792",
    5: "12de8755eb2c09fa817663bf41be5b9db03970a5484d5581ae927c8667db1743",
    6: "da750dd66b6b01cd4dd976df1e9e220e083f8a915554f7efb94de659f14969a0",
    20: "74eb1d5a88a7e85fa39b335199ba0663d08d375f97f1654efac3a597adb467c2",
}


@pytest.mark.parametrize("k", sorted(CORPUS_SHA256))
def test_regression_corpus_pinned(k):
    rows = [(e.ident, e.stage, e.relation.letters, e.suspect, e.note)
            for e in regression_corpus(k)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CORPUS_SHA256[k]


@pytest.mark.parametrize("k", [*range(1, 13), 20, 100])
def test_regression_corpus_matches_per_i_reading(k):
    # each orbifold template is read once and renamed per i: the rows must be
    # those of reading every instance of it from its own text
    rows = [(e.ident, e.stage, e.relation.letters, e.suspect, e.note)
            for e in regression_corpus(k)]
    assert rows == [(e.ident, e.stage, e.relation.letters, e.suspect, e.note)
                    for e in reference.regression_corpus(k)]
    assert sum(e.stage == "orbifold" for e in regression_corpus(k)) > 10 * (k + 1)


def test_corpus_relations_trace_in_both_quotients(pipe):
    for k in (1, 2):
        probe = pipe.quotient(k)
        orbifold = pipe.orbifold(k)
        for entry in regression_corpus(k):
            base = base_word(pipe, entry, orbifold)
            holds = holds_in(probe, base)
            if entry.suspect:
                assert not holds
            else:
                assert holds, entry.ident


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 20])
def test_stage_tracing_matches_pushdown(pipe, k):
    # each entry traced in its stage's alphabet, against the same entry
    # pushed down to d/G through the backmaps and traced on T(k)
    report = pipe.run(k)
    probe, orbifold = pipe.quotient(k), pipe.orbifold(k)
    pushed = {e.ident: holds_in(probe, base_word(pipe, e, orbifold))
              for e in regression_corpus(k)}
    assert report.regressions == {i: v for i, v in pushed.items() if i in report.regressions}
    assert len(pushed) == len(report.regressions) + 1
    verdict = report.suspects[0]
    assert verdict.printed_holds == pushed[verdict.ident]
    assert verdict.corrected_holds == pushed[pipeline._CORRECTED]


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_stage_tables_certify_their_covers(pipe, k):
    # a stage table is T(k)'s cosets under the cover's Schreier generators:
    # closed, mutually inverse, and every cover relator fixes every coset
    orbifold = pipe.orbifold(k)
    z2 = pipe.z2.gens.table(pipe.quotient(k))
    for table, stage in ((z2, pipe.z2), (orbifold.gens.table(z2), orbifold)):
        table.validate(stage.raw)
        table.validate(stage.simplified)
    suspect = next(e for e in regression_corpus(k) if e.suspect)
    with pytest.raises(AssertionError, match="does not fix"):
        z2.validate(add_relators(pipe.z2.raw, [suspect.relation]))


def test_no_entry_is_freely_trivial():
    # an entry whose relation is the empty word holds in every quotient and
    # checks nothing
    for k in range(1, 7):
        trivial = [e.ident for e in regression_corpus(k) if e.relation.is_identity()]
        assert trivial == [], k


def test_parity_law_through_k6(pipe):
    for k in range(1, 7):
        inv = abelian_invariants(pipe.orbifold(k).simplified)
        assert inv.torsion == ((4, 4) if k % 2 else (2, 4))
        assert inv.free_rank == 0


def test_tietze_keeps_the_invariants_of_each_cover(pipe):
    # a check by Smith form alone, with no Tietze move: each raw
    # Reidemeister-Schreier kernel has the invariants of its simplification
    for cover in (pipe.z2, *(pipe.orbifold(k) for k in (1, 2, 3, 4, 5, 6, 20))):
        raw, simplified = abelian_invariants(cover.raw), abelian_invariants(cover.simplified)
        assert (raw.torsion, raw.free_rank) == (simplified.torsion, simplified.free_rank)
        assert len(cover.raw.relators) > len(cover.simplified.relators)   # not the same input


@pytest.mark.parametrize("k,invariants", [(39, (4, 4)), (40, (2, 4))])
def test_parity_law_at_k39_k40(pipe, k, invariants):
    inv = abelian_invariants(pipe.orbifold(k).simplified)
    assert inv.torsion == invariants and inv.free_rank == 0


def test_stage_budget_exhaustion_fails_the_run(monkeypatch):
    real = pipeline.tietze_simplify
    monkeypatch.setattr(pipeline, "tietze_simplify",
                        lambda p, budget=20000, protect=(), *, eliminate_short=False:
                        real(p, 3, protect, eliminate_short=eliminate_short))
    with pytest.raises(PipelineError, match="budget"):
        pipeline._simplify(pi_prime(), full_alphabet())
    with pytest.raises(PipelineError):
        pipeline.Pipeline()


def test_pipeline_stages_stay_within_budget(monkeypatch):
    logs = []
    real = pipeline.tietze_simplify

    def recording(p, budget=20000, protect=(), *, eliminate_short=False):
        result = real(p, budget, protect, eliminate_short=eliminate_short)
        logs.append(result[1])
        return result

    monkeypatch.setattr(pipeline, "tietze_simplify", recording)
    pipe = pipeline.Pipeline()
    for k in range(1, 7):
        pipe.run(k)
    # Pi', the Z/2 parent and cover, then an orbifold per k (T(k) goes to
    # coset enumeration unsimplified)
    assert len(logs) == 9
    assert not any(log.exhausted for log in logs)


# the orbifold_simplified total length of k = 1..8 and 20 before the orbifold
# stage eliminated short-defined generators first
_PLAIN_ORBIFOLD_LENGTHS = {1: 23, 2: 16, 3: 18, 4: 16, 5: 18, 6: 16, 7: 18, 8: 16, 20: 16}


@pytest.mark.parametrize("k", sorted(_PLAIN_ORBIFOLD_LENGTHS))
def test_short_eliminations_lengthen_no_orbifold_stage(pipe, k):
    # the elimination phase may not make any final group's presentation longer,
    # nor change what the run certifies
    report = pipe.run(k)
    final = {s.name: s for s in report.stages}["orbifold_simplified"]
    assert final.total_length <= _PLAIN_ORBIFOLD_LENGTHS[k]
    assert report.order == (16 if k % 2 else 8)
    assert report.invariants == AbelianInvariants((4, 4) if k % 2 else (2, 4), 0)
    assert report.abelian and report.all_regressions_hold
    assert [tuple(v[1:]) for v in report.suspects] == [(False, True, True)]


def test_invalid_k(pipe):
    with pytest.raises(ValueError):
        run(0)
    with pytest.raises(ValueError):
        pipe.orbifold(0)
    with pytest.raises(ValueError):
        pipe.quotient(0)
    with pytest.raises(ValueError):
        regression_corpus(0)
