import argparse
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from braidpi import cli, cosets, grammar, pipeline, word_core
from braidpi.cli import MAX_ACT_LETTERS, MAX_COSETS, main
from braidpi.grammar import (MAX_NESTING, ParseError, parse_braid, parse_presentation,
                             parse_word)
from braidpi.pipeline import pi_prime
from braidpi.tietze import TietzeLog
from braidpi.word_core import Alphabet, GenSym, Word, alphabet


def test_parse_word_basic():
    alph = alphabet("d1", "d2")
    w = parse_word("d2' d1' d2 d1 d2", alph)
    assert w == Word.of([(GenSym("d", 2), -1), (GenSym("d", 1), -1),
                         (GenSym("d", 2), 1), (GenSym("d", 1), 1), (GenSym("d", 2), 1)])


def test_parse_word_powers_and_parens():
    alph = alphabet("a", "b")
    a, b = GenSym("a"), GenSym("b")
    assert parse_word("a^3", alph) == Word.gen(a) ** 3
    assert parse_word("(a b)^-2", alph) == (Word.gen(a) * Word.gen(b)) ** -2
    assert parse_word("a b' (b a)^2", alph) == (
        Word.gen(a) * Word.gen(b, -1) * (Word.gen(b) * Word.gen(a)) ** 2)
    assert parse_word("a = b", alph) == Word.gen(a) * Word.gen(b, -1)


def test_parse_word_roundtrip():
    alph = alphabet("a", "b", "G")
    for text in ("a b' a^3", "G a G' b^-2", "a"):
        w = parse_word(text, alph)
        assert parse_word(str(w), alph) == w


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_word("a $ b")
    assert info.value.line == 1 and info.value.column == 3
    with pytest.raises(ParseError):
        parse_word("a ^ x")
    with pytest.raises(ParseError):
        parse_presentation("< a b | a, ")


def test_parse_identity_atom():
    a = GenSym("a")
    assert parse_word("a^4 = 1") == parse_word("a^4") == Word.gen(a) ** 4
    assert parse_word("1") == Word.identity()
    assert parse_word("a 1 a' 1^3 (1)'") == Word.identity()
    for text in ("2", "a 01", "-1", "a^1 1^"):
        with pytest.raises(ParseError):
            parse_word(text)
    with pytest.raises(ParseError):
        parse_presentation("< 1 | a >")


def _random_product(rng, depth):
    """The text of a random product of symbols, 1s, parenthesized products,
    inverses and powers, and its letters expanded with no cancellation."""
    texts, letters = [], []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if depth and kind < 0.4:
            text, ls = _random_product(rng, depth - 1)
            text = f"({text})"
        elif kind < 0.5:
            text, ls = "1", []
        else:
            text = rng.choice("ab")
            ls = [(GenSym(text), 1)]
        for _ in range(rng.randint(0, 2)):
            n = -1 if rng.random() < 0.4 else rng.randint(-3, 3)
            text += "'" if n == -1 and rng.random() < 0.5 else f"^{n}"
            ls = (ls if n >= 0 else [(sym, -sign) for sym, sign in reversed(ls)]) * abs(n)
        texts.append(text)
        letters += ls
    return " ".join(texts), letters


def test_parse_word_matches_the_expanded_letters():
    rng = random.Random(20)
    cancelled = 0
    for _ in range(2000):
        text, letters = _random_product(rng, 3)
        w = parse_word(text)
        assert w == Word.of(letters), text
        cancelled += len(w) < len(letters)
    assert cancelled > 500


def test_parse_word_cancels_only_where_factors_meet(monkeypatch):
    # factors are freely reduced, so a product does not pass the letters of
    # a^999999 (one letter under MAX_LETTERS) through the free reducer again
    passed = []
    real = word_core._reduce_into

    def counting(out, letters):
        letters = list(letters)
        passed.append(len(letters))
        return real(out, letters)

    monkeypatch.setattr(word_core, "_reduce_into", counting)
    assert parse_word("a^999999") == Word.gen(GenSym("a")) ** 999999
    assert sum(passed) <= 2, passed


def test_parse_braid():
    b = parse_braid("s1' s2 s3 s1 s2' s1", 5)
    assert b.letters == ((1, -1), (2, 1), (3, 1), (1, 1), (2, -1), (1, 1))
    with pytest.raises(Exception):
        parse_braid("s9", 5)


def test_parse_presentation_roundtrip():
    p = parse_presentation("< a b | a^4, b^4, a b a' b' >")
    assert len(p.alphabet) == 2 and len(p.relators) == 3
    assert parse_presentation(str(p)) == p
    empty = parse_presentation("< a | >")
    assert empty.relators == ()


def test_cli_tc(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("< a | a^5 >")
    assert main(["tc", str(f)]) == 0
    assert "order 5" in capsys.readouterr().out


def test_cli_tc_overflow(tmp_path, capsys):
    f = tmp_path / "free.txt"
    f.write_text("< a b | >")
    assert main(["tc", str(f), "--max", "10"]) == 3


@pytest.mark.parametrize("command", [["tc", "-"], ["pipeline"], ["regression"]])
def test_cli_coset_budget_bound(command, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("< a | a^2 >"))
    assert main([*command, "--max", str(MAX_COSETS + 1)]) == 2
    assert f"more than {MAX_COSETS} cosets" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pipeline", "regression"])
def test_cli_coset_budget_reaches_the_quotient(command, shared_pipeline, capsys):
    # enumerating T(1) defines 3,239 cosets: one fewer is an overflow
    assert main([command, "--k", "1", "--max", "3238"]) == 3
    assert "budget of 3238 cosets exhausted" in capsys.readouterr().err
    assert main([command, "--k", "1", "--max", "3239"]) == 0


@pytest.mark.parametrize("argv,stdin,code,err", [
    (["tc", "-", "--max", "10"], "< a b | a^2, b^3, (a b)^4 >", 3,
     "overflow: budget of 10 cosets exhausted\n"),
    (["pipeline", "--k", "1", "--max", "3238"], "", 3,
     "overflow: budget of 3238 cosets exhausted\n"),
    (["tc", "-", "--max", "0"], "< a | a^2 >", 2, "error: max_cosets must be >= 1\n"),
    (["tc", "-", "--max", "3"], "< a b | a^2 >", 3, "overflow: budget of 3 cosets exhausted\n"),
    (["tc", "-", "--max", "2000000"], "< a | a^2 >", 2,
     "error: --max 2000000 is more than 1000000 cosets\n"),
    (["tc"], "", 2, "usage: braidpi tc [-h] [--json] [--max MAX] file\n"
                    "braidpi tc: error: the following arguments are required: file\n"),
], ids=["tc --max 10", "pipeline --k 1 --max 3238", "tc --max 0", "tc --max 3",
        "tc --max 2000000", "tc usage"])
def test_cli_coset_exit_codes_in_a_fresh_process(argv, stdin, code, err):
    # main catches the overflow before any enumerator is loaded; in a fresh
    # process the command loads it, and the overflow is still exit 3; run's
    # os._exit comes after each error line is whole
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "braidpi.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", err)


@pytest.mark.parametrize("argv,stdin,cap_kb", [
    (["tc", "-"], "< " + " ".join(f"a{i}" for i in range(300)) + " | >", 800_000),
    (["tc", "-", "--max", "100000000"], "< a | >", 600_000),
], ids=["300 free generators", "budget past MAX_COSETS"])
def test_cli_tc_memory_bounded(argv, stdin, cap_kb):
    # a free group fills the table until a bound stops it; under an
    # address-space cap on the child alone, that is an exit code, never a
    # MemoryError (exit 1, "a check failed")
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_kb * 1024, cap_kb * 1024))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "braidpi.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=env, preexec_fn=cap,
                          timeout=5)
    assert done.returncode in (2, 3), done.stderr


def test_cli_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("< a | a^ >")
    assert main(["tc", str(f)]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize("text,column", [
    ("< a | a^\u0663 >", 9),            # an Arabic-Indic three
    ("< a\u00b2 | a >", 4),              # a superscript two
    ("< \u00e9 | \u00e9^2 >", 3),        # a Latin letter outside ASCII
])
def test_grammar_is_ascii_only(text, column, monkeypatch, capsys):
    # symbols and integers take ASCII letters and digits alone: anything else
    # is a parse error at its line and column, never read as a digit
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    assert (info.value.line, info.value.column) == (1, column)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["tc", "-"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: 1:{column}: unexpected character {text[column - 1]!r}\n"
    # a name given outside the grammar does not take such a digit as its index
    with pytest.raises(ValueError):
        GenSym.parse("d\u0662")
    assert GenSym.parse("d12") == GenSym("d", 12)


@pytest.mark.parametrize("value", ["١", "５", "1_0"])  # Arabic-Indic one, fullwidth five
@pytest.mark.parametrize("argv", [
    ["act", "--braid", "s1", "--word", "d1", "--n", "{}"],
    ["present", "-", "--simplify", "--budget", "{}"],
    ["schreier", "-", "--mod", "{}", "--images", "a=1,b=0"],
    ["schreier", "-", "--mod", "2", "--images", "a=1,b={}"],
    ["tc", "-", "--max", "{}"],
    ["pipeline", "--k", "{}"],
    ["pipeline", "--all", "--max-k", "{}"],
    ["pipeline", "--max", "{}"],
    ["regression", "--k", "{}"],
    ["regression", "--max", "{}"],
], ids=["act-n", "present-budget", "schreier-mod", "schreier-images", "tc-max", "pipeline-k",
        "pipeline-max-k", "pipeline-max", "regression-k", "regression-max"])
def test_cli_numeric_options_are_ascii(argv, value, monkeypatch, capsys):
    # int() reads other scripts' digits and underscores; the options read the
    # grammar's INT alone, so each of these is a usage error before any work
    monkeypatch.setattr("sys.stdin", io.StringIO("< a b | a^2, b^3, a b a b >"))
    assert main([a.format(value) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and repr(value) in captured.err
    with pytest.raises(ParseError, match="expected an integer"):
        grammar.parse_int(value)
    assert grammar.parse_int(" -12 ") == -12


def test_cli_schreier_transversal_parsed_before_the_map_is_checked(monkeypatch, capsys):
    # the map is checked once, by subgroup_presentation: an unparsable
    # transversal is reported first, though b^3 maps to 1 mod 2; both exit 2
    for transversal, message in (("1;(", "error: 1:2: expected a word\n"),
                                 ("1;a", "error: relator b^3 maps to 1 != 0 mod 2\n")):
        monkeypatch.setattr("sys.stdin", io.StringIO("< a b | a^2, b^3, a b a b >"))
        assert main(["schreier", "-", "--mod", "2", "--images", "a=1,b=1",
                     "--transversal", transversal]) == 2
        assert capsys.readouterr().err == message


def test_cli_failed_certificate_exit_code(monkeypatch, capsys):
    # a pipeline stage whose Tietze move budget runs out, and a coset table
    # that does not validate, are failed checks: exit 1 with one error line
    monkeypatch.setattr(pipeline, "tietze_simplify",
                        lambda p, budget=20000, protect=(), *, eliminate_short=False:
                        (p, TietzeLog([], True)))
    assert main(["pipeline", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Tietze move budget exhausted on ") and err.count("\n") == 1

    def refuted(table, p=None):
        raise AssertionError("relator a^2 does not fix every coset")

    monkeypatch.setattr(cosets.CosetTable, "validate", refuted)
    monkeypatch.setattr("sys.stdin", io.StringIO("< a | a^2 >"))
    assert main(["tc", "-"]) == 1
    assert capsys.readouterr().err == "error: relator a^2 does not fix every coset\n"


def test_cli_act(capsys):
    assert main(["act", "--braid", "s1' s2 s3 s1 s2' s1", "--word", "d4", "--n", "5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "d4' d2' d1 d2 d4"  # (d4) b1 for the printed braid b1


def test_cli_act_bounds(capsys):
    # a huge strand count is refused before any alphabet is built
    assert main(["act", "--n", "3000000", "--braid", "s1", "--word", "d1"]) == 2
    assert "strands" in capsys.readouterr().err
    # 36 braid letters whose image of d1 grows exponentially: stopped at the cap
    assert main(["act", "--braid", "(s1 s2')^18", "--word", "d1", "--n", "3"]) == 2
    assert "the image passes" in capsys.readouterr().err
    # below the cap, letter-by-letter application is the braid's action
    assert main(["act", "--braid", "(s1 s2')^5", "--word", "d1 d3", "--n", "3"]) == 0
    image = parse_braid("(s1 s2')^5", 3).act(parse_word("d1 d3"), alphabet("d1", "d2", "d3"))
    assert capsys.readouterr().out.strip() == str(image)


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_cli_act_needs_two_strands(n, capsys):
    # the strand count is checked before the braid, so the error names it
    assert main(["act", "--n", n, "--braid", "s1", "--word", "d1"]) == 2
    assert capsys.readouterr() == ("", f"error: --n {n} is fewer than 2 strands\n")
    assert main(["act", "--n", "2", "--braid", "s1", "--word", "d1"]) == 0
    assert capsys.readouterr() == ("d2\n", "")


def test_cli_act_work_bound(capsys):
    # s1^1000000 parses (it is MAX_LETTERS letters), and the image of d1 grows by
    # two letters a step: the letters written over all steps stop it
    start = time.perf_counter()
    assert main(["act", "--braid", "s1^1000000", "--word", "d1", "--n", "3"]) == 2
    assert time.perf_counter() - start < 10
    assert f"the steps write more than {MAX_ACT_LETTERS} letters" in capsys.readouterr().err


def test_cli_act_many_strands(capsys):
    # each braid letter rewrites two strand images, not one per strand
    start = time.perf_counter()
    assert main(["act", "--n", "10000", "--braid", "s1", "--word", "d1"]) == 0
    assert capsys.readouterr().out.strip() == "d2"
    assert main(["act", "--n", "10000", "--braid", "(s1 s9999')^400",
                 "--word", "d1 d10000"]) == 0
    assert time.perf_counter() - start < 2
    fiber = Alphabet(GenSym("d", i) for i in range(1, 10001))
    image = parse_braid("(s1 s9999')^400", 10000).act(parse_word("d1 d10000", fiber), fiber)
    assert capsys.readouterr().out.strip() == str(image) and len(image) == 1598


def test_cli_simplify_reports_budget_exhaustion(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("< a b c | a^2, b^2, (a b)^3, c a' b >")
    assert main(["present", str(f), "--simplify", "--budget", "3"]) == 0
    assert "budget of 3 moves ran out" in capsys.readouterr().err
    assert main(["present", str(f), "--simplify"]) == 0
    assert main(["schreier", str(f), "--mod", "2", "--images", "a=1,b=1,c=0",
                 "--simplify"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_abelianize(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("< a b | a^4, b^4, a b a' b' >")
    assert main(["abelianize", str(f), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["invariants"] == [4, 4] and data["freeRank"] == 0


def test_cli_schreier(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("< a b | a^2, b^2, (a b)^3 >")
    code = main(["schreier", str(f), "--mod", "2", "--images", "a=1,b=1",
                 "--transversal", "1;a", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["stage"] == "schreier"
    assert len(data["generators"]) >= 1
    # the identity representative is the grammar's 1, spaces allowed
    assert main(["schreier", str(f), "--mod", "2", "--images", "a=1,b=1",
                 "--transversal", " 1 ; a", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == data
    # an empty transversal is a parse error, not the default transversal
    assert main(["schreier", str(f), "--mod", "2", "--images", "a=1,b=1",
                 "--transversal", ""]) == 2
    assert "expected a word" in capsys.readouterr().err


def test_cli_schreier_image_names(monkeypatch, capsys):
    # a name outside the alphabet, or given twice, is a usage error naming it
    for spec, message in (("a=1,b=0,c=1", "c is not a generator"),
                          ("a=1,a=0,b=0", "a is given twice")):
        monkeypatch.setattr("sys.stdin", io.StringIO("< a b | a^2, b^3, a b a b >"))
        assert main(["schreier", "-", "--mod", "2", "--images", spec]) == 2
        assert message in capsys.readouterr().err
    # a correct spec, in any order and spacing, prints what it always did
    for spec in ("a=1,b=0", " b=0 , a=1"):
        monkeypatch.setattr("sys.stdin", io.StringIO("< a b | a^2, b^3, a b a b >"))
        assert main(["schreier", "-", "--mod", "2", "--images", spec]) == 0
        assert capsys.readouterr().out == (
            "< a_1 b_0 b_1 | a_1, b_0^3, b_1^3, b_1 a_1 b_0 >\n\n"
            "a_1 = a^2\nb_0 = b\nb_1 = a b a'\n")


def test_cli_schreier_modulus_bound(tmp_path, capsys):
    # 10^7 cosets of < a b | > would give 2 * 10^7 Schreier generators
    f = tmp_path / "free.txt"
    f.write_text("< a b | >")
    start = time.perf_counter()
    assert main(["schreier", str(f), "--mod", "10000000", "--images", "a=1,b=0"]) == 2
    assert time.perf_counter() - start < 2
    assert "letters" in capsys.readouterr().err


def test_cli_schreier_modulus_bound_counts_the_defining_words(monkeypatch, capsys):
    # < a | > mod n has n defining words of up to 2n - 1 letters: the bound
    # n (2n + 0) <= 10^6 refuses n = 708 at once and accepts n = 707
    for modulus, code in (("1000", 2), ("708", 2), ("707", 0)):
        monkeypatch.setattr("sys.stdin", io.StringIO("< a | >"))
        start = time.perf_counter()
        assert main(["schreier", "-", "--mod", modulus, "--images", "a=1"]) == code
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else f"error: --mod {modulus}: the kernel "
                       "presentation would pass 1000000 letters\n")


def test_cli_schreier_transversal_word_bound(monkeypatch, capsys):
    # no word of a Schreier transversal of n words is longer than n - 1
    # letters; a longer one is refused as soon as it is parsed
    for transversal, letters in (("1;a a;(", 2), (";".join(["a^99999"] * 20), 99999)):
        monkeypatch.setattr("sys.stdin", io.StringIO("< a | >"))
        start = time.perf_counter()
        assert main(["schreier", "-", "--mod", "2", "--images", "a=1",
                     "--transversal", transversal]) == 2
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err == (
            f"error: --transversal: a word of {letters} letters; a Schreier transversal "
            "for --mod 2 has none past 1\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("< a | >"))
    assert main(["schreier", "-", "--mod", "3", "--images", "a=1",
                 "--transversal", "1;a;a^2"]) == 0


@pytest.mark.parametrize("argv", [["pipeline", "--k", "100000000"],
                                  ["pipeline", "--all", "--max-k", "5000"],
                                  ["regression", "--k", "5000"]])
def test_cli_cover_parameter_bound(argv, capsys):
    # the orbifold kernel would hold at least 2 (k + 1)^2 letters
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    assert "letters" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["pipeline", "--k", "511"],
                                  ["pipeline", "--all", "--max-k", "706"],
                                  ["regression", "--k", "600"]])
def test_cli_cover_parameter_move_budget(argv, capsys):
    # from k = 511 on, no cold run has been measured: refused at once instead
    # of running for minutes
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    assert "the cold runs past MAX_K = 510 are not yet measured" in capsys.readouterr().err
    cli._check_ks([510])
    cli._check_ks(list(range(1, 511)))


@pytest.mark.parametrize("max_k", ["0", "-3"])
def test_cli_pipeline_empty_k_range(max_k, capsys):
    # a range with no k checks nothing, so it cannot report success
    assert main(["pipeline", "--all", "--max-k", max_k]) == 2
    assert main(["pipeline", "--all", "--max-k", max_k, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-k" in captured.err


def test_cli_pipeline_json(shared_pipeline, capsys):
    assert main(["pipeline", "--k", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 16
    assert data["invariants"] == [4, 4]
    assert data["abelian"] is True
    assert all(data["regressions"].values())


def test_cli_regression(shared_pipeline, capsys):
    assert main(["regression", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "[VERDICT]" in out and "[FAIL]" not in out


def test_cli_verify_config(capsys):
    assert main(["verify-config"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 10 and "[FAIL]" not in out


# sha256 of the verify-config output, text and --json, recorded when the checks
# used polynomial division and a ratio search; the exact identities print the same
_VERIFY_CONFIG_SHA256 = {
    (): "9731a10ee51384fbf465bb8f9af58c77cbe3b46871ab36f26f5209d57aa920fa",
    ("--json",): "fe82ac87afaf0377534f6dac7371c32cc1d5de1fa445b20d3b981c7e194db932",
}


@pytest.mark.parametrize("extra", sorted(_VERIFY_CONFIG_SHA256), ids=["text", "json"])
def test_cli_verify_config_output_pinned(extra, capsys):
    assert main(["verify-config", *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_CONFIG_SHA256[extra]


# sha256 of `pipeline --k K --json`, recorded when the orbifold stage began to
# eliminate short-defined generators first (only its orbifold_simplified sizes
# moved); the report must not move by a byte
_PIPELINE_JSON_SHA256 = {
    1: "542d6819fd09fe0578e4d35be7740173500094a26585df6917e49354d821502d",
    2: "9f864e501de78468a411fc0876cba45a31d6f6d2bcf0b5c3cd417d04a2c64bdd",
    3: "f9ec45a9bcc3959b0f68121a5bd5eadeeb35cc7ebab4cb86c6607611b10b10b5",
    4: "c818c7be5fb2c68559649902df2f19a43257dcff8874c73a4770a25496a418eb",
    5: "1f0c7dc20a6bfaf3fabd48b73a7a70e49d97571761f9d61b2f8ea5b4fbfc262a",
    6: "37beb9e59586313127cc877d633ddf2742046cdc206934dfacccd7abe5e51ad3",
}


@pytest.mark.parametrize("k", sorted(_PIPELINE_JSON_SHA256))
def test_cli_pipeline_json_pinned(k, shared_pipeline, capsys):
    assert main(["pipeline", "--k", str(k), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PIPELINE_JSON_SHA256[k]


# sha256 of `present - --simplify` and `schreier - --mod 3 --simplify`, text and
# --json, on two fixed inputs, recorded with the pipeline digests above
_SIMPLIFY_INPUTS = {
    "commutators": ("< a b c | a b a' b', a c a' c', b^2 c^3, b c b c' b' c' >", "a=1,b=0,c=0"),
    "triangle": ("< a b | a^3, b^3, (a b)^3, (a b')^6 >", "a=1,b=1"),
}
_SIMPLIFY_SHA256 = {
    ("commutators", "present", ()):
        "e37e5e247873de3bbcffa77897ca24fac1e48719f1a5c972bfc392663d49c3ed",
    ("commutators", "present", ("--json",)):
        "f2e20ca6e2e21b4d609abfb3da983830e37255eab8c2a7b104fb96ab3192fca7",
    ("commutators", "schreier", ()):
        "ea1f0327b86c0b7f1a623afd2a2fefc3be5061b45e3e887a62e20adbdf52c5c0",
    ("commutators", "schreier", ("--json",)):
        "20d731faf28abdcefe5e7acc226ff34c4f6029ed0530f7607477fe611dd8796e",
    ("triangle", "present", ()):
        "2d59f322a5591aba8eadfce0358363d8440f76c5a242749bce7df2f1c89ab382",
    ("triangle", "present", ("--json",)):
        "78650543171f6b02434376e191798cdac57c6d6ebea2c87d3b14a5fbe8929f07",
    ("triangle", "schreier", ()):
        "b991a403c2346b14b8fe5bf7f22ac71377ae7860cf778e102714f9bad27d6d70",
    ("triangle", "schreier", ("--json",)):
        "1cf9005854d6823bb366007764659d3435371070faa486266ec36b0f7d240589",
}


@pytest.mark.parametrize("name,command,extra", sorted(_SIMPLIFY_SHA256))
def test_cli_simplify_output_pinned(name, command, extra, monkeypatch, capsys):
    text, images = _SIMPLIFY_INPUTS[name]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    args = ["--mod", "3", "--images", images] if command == "schreier" else []
    assert main([command, "-", *args, "--simplify", *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _SIMPLIFY_SHA256[name, command, extra]


def test_cli_present_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("< a b | a b' >"))
    assert main(["present", "-", "--simplify"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<")


def test_cli_deterministic_output(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("< a b | a^2, b^2, (a b)^3 >")
    main(["tc", str(f), "--json"])
    first = capsys.readouterr().out
    main(["tc", str(f), "--json"])
    second = capsys.readouterr().out
    assert first == second


def _present(tmp_path, text):
    f = tmp_path / "p.txt"
    f.write_text(text)
    return main(["present", str(f)])


def test_cli_nesting_bound(tmp_path, capsys):
    # deep nesting is a parse error (exit 2), not a RecursionError
    assert _present(tmp_path, "< a | " + "(" * 5000 + "a" + ")" * 5000 + " >") == 2
    assert "nested deeper" in capsys.readouterr().err
    assert _present(tmp_path, "< a | " + "(" * 50 + "a" + ")" * 50 + "^3 >") == 0
    assert capsys.readouterr().out.strip() == "< a | a^3 >"
    depth = MAX_NESTING
    assert parse_word("(" * depth + "a" + ")" * depth) == Word.gen(GenSym("a"))


def test_cli_power_bound(tmp_path, capsys, monkeypatch):
    # a huge power fails fast with exit 2 instead of building 10^8 letters
    assert _present(tmp_path, "< a | a^-100000000 >") == 2
    assert "letters" in capsys.readouterr().err
    # a power of the identity is the identity, however large the exponent
    assert _present(tmp_path, "< a | (a a')^100000000 >") == 0
    assert parse_presentation(capsys.readouterr().out).relators == ()
    # the longest presentation the pipeline builds parses back unchanged
    assert parse_presentation(str(pi_prime())) == pi_prime()
    # powers, products and whole presentations are held to the cap
    monkeypatch.setattr(grammar, "MAX_LETTERS", 100)
    assert len(parse_word("(a^10)^10")) == 100
    for text in ("a^101", "(a^10)^10 a", "(a^5 b^5)^-11"):
        with pytest.raises(ParseError):
            parse_word(text)
    assert len(parse_presentation("< a b | a^50, b^50 >").relators) == 2
    with pytest.raises(ParseError):
        parse_presentation("< a b | a^50, b^51 >")


@pytest.mark.parametrize("argv", [
    *([command, "--help"] for command in (
        "act", "present", "schreier", "tc", "abelianize", "pipeline", "regression",
        "verify-config")),
    ["tc", "-"],
], ids=" ".join)
def test_cli_runs_under_warnings_as_errors(argv):
    # runpy warns when the package has already imported braidpi.cli; that, or
    # any warning on the import path, fails the call here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "braidpi.cli", *argv],
                          input="< a b | a^2, b^3, a b a b >", capture_output=True,
                          text=True, env=env)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert argv[-1] == "--help" or done.stdout == "order 6\n"


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["pipeline", "--k", "1", "--json"], ["verify-config"],
                                  ["tc", "-"]], ids=" ".join)
def test_cli_closed_stdout_exit_code(argv, buffered):
    # a reader that closed standard output before the command wrote (as
    # `braidpi pipeline --json | head -1` can) is exit 141 with nothing on
    # stderr, whether the write fails in a print or in the last flush
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "braidpi.cli", *argv],
                              input=b"< a | a^2 >", stdout=write, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


_EIGHT = ("act", "present", "schreier", "tc", "abelianize", "pipeline", "regression",
          "verify-config")


def test_cli_builds_one_subparser_per_named_command(capsys):
    # a call that names a command builds that command's subparser alone;
    # --help, no command and an unknown command build all eight, so help,
    # usage and exit codes are those of the full parser
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(_EIGHT) + "}" in out
    assert all(f"\n    {command} " in out for command in _EIGHT), out
    assert main(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'frobnicate'" in err and all(f"'{c}'" in err for c in _EIGHT), err
    assert main([]) == 2
    assert "the following arguments are required: command" in capsys.readouterr().err
    full = cli._build_parser()
    for command in _EIGHT:
        one = cli._build_parser(command)
        subparsers = [a for a in one._actions if isinstance(a, argparse._SubParsersAction)]
        assert [list(a.choices) for a in subparsers] == [[command]]
        assert one.format_usage() == full.format_usage()


def _child(argv, stdin="", *, prefix=("-m", "braidpi.cli"), **env):
    """``python PREFIX ARGV...`` in a child, with a block-buffered standard
    output to a pipe, as a shell pipeline gives it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *prefix, *argv], input=stdin, capture_output=True,
                          text=True, env=env, timeout=120)


def test_cli_help_through_a_pipe_is_whole(monkeypatch):
    # argparse leaves the help in stdout's buffer; run flushes it before os._exit
    monkeypatch.setenv("COLUMNS", "80")
    done = _child(["--help"], COLUMNS="80")
    assert (done.returncode, done.stdout, done.stderr) == (0, cli._build_parser().format_help(),
                                                           "")


def test_cli_pipeline_all_json_through_a_pipe():
    done = _child(["pipeline", "--all", "--max-k", "3", "--json"])
    assert (done.returncode, done.stderr) == (0, "")
    assert [report["k"] for report in json.loads(done.stdout)] == [1, 2, 3]


def test_cli_under_cprofile_writes_its_table():
    # a profiler is set, so run exits normally and cProfile prints its stats
    done = _child(["tc", "-"], "< a b | a^2, b^3, a b a b >",
                  prefix=("-m", "cProfile", "-m", "braidpi.cli"))
    assert (done.returncode, done.stderr) == (0, "")
    head, _, table = done.stdout.partition("\n")
    assert head == "order 6" and " function calls " in table and "Ordered by" in table


@pytest.mark.parametrize("traced", [False, True], ids=["hard exit", "traced"])
def test_cli_run_skips_teardown_unless_traced(traced):
    # an atexit hook runs at the interpreter's teardown, which run skips
    # unless a trace function is set
    script = ("import atexit, sys\n"
              "atexit.register(print, 'teardown', file=sys.stderr)\n"
              f"{'sys.settrace(lambda *a: None)' if traced else ''}\n"
              "sys.argv[1:] = ['tc', '-']\n"
              "from braidpi.cli import run\n"
              "run()\n")
    done = _child([], "< a | a^2 >", prefix=("-c", script))
    assert (done.returncode, done.stdout) == (0, "order 2\n")
    assert done.stderr == ("teardown\n" if traced else "")


def test_cli_help_to_a_closed_stdout_exit_code():
    # the help's write fails only in run's flush: exit 141, nothing on stderr
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "braidpi.cli", "--help"], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")
