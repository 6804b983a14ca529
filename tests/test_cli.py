import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from braidpi import grammar
from braidpi.cli import MAX_COSETS, main
from braidpi.grammar import (MAX_NESTING, ParseError, parse_braid, parse_presentation,
                             parse_word)
from braidpi.pipeline import pi_prime
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
    assert "letters" in capsys.readouterr().err
    # below the cap, letter-by-letter application is the braid's action
    assert main(["act", "--braid", "(s1 s2')^5", "--word", "d1 d3", "--n", "3"]) == 0
    image = parse_braid("(s1 s2')^5", 3).act(parse_word("d1 d3"), alphabet("d1", "d2", "d3"))
    assert capsys.readouterr().out.strip() == str(image)


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


@pytest.mark.parametrize("argv", [["pipeline", "--k", "100000000"],
                                  ["pipeline", "--all", "--max-k", "5000"],
                                  ["regression", "--k", "5000"]])
def test_cli_cover_parameter_bound(argv, capsys):
    # the orbifold kernel would hold at least 2 (k + 1)^2 letters
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    assert "letters" in capsys.readouterr().err


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
