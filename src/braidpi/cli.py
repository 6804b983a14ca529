"""Command-line surface.

Words, braids and presentations are read by the grammar in ``grammar``
(for example ``d2' d1' d2 d1 d2`` or ``< a b | a^4, b^4, a b a' b' >``);
its bounds ``MAX_NESTING`` and ``MAX_LETTERS`` make parse errors.  Numeric
options (``--n``, ``--budget``, ``--mod``, ``--max``, ``--k``, ``--max-k``) and
the residues of ``schreier --images`` are the grammar's INT, ASCII digits
with an optional minus sign (``grammar.parse_int``); anything else, such as
another script's digits or ``1_0``, is exit 2.  ``act`` on fewer than 2
or more than ``MAX_STRANDS`` strands, with an image past ``MAX_LETTERS``
letters, or writing more than ``MAX_ACT_LETTERS`` letters summed over the
images of its steps (it applies the braid letter by letter), are usage
errors.  So is ``schreier --mod n`` when n (2n * generators + total relator
length) passes ``MAX_LETTERS`` (n * generators defining words of under 2n
letters each, and n rewrites of each relator), or with a ``--transversal``
word longer than n - 1 letters, which no Schreier transversal holds (checked
as each word is parsed).  So are ``pipeline --k K``,
``pipeline --all --max-k K`` and ``regression --k K`` when 2 (K + 1)^2
passes ``MAX_LETTERS`` (the orbifold kernel holds the K + 1 rewrites of
G^(K+1) and of s^(K+1)), or when K passes ``MAX_K`` = 510, the largest k
whose orbifold Tietze stage fitted its 20,000-move budget before the stage
eliminated short-defined generators first; it now spends 22 k + 31 moves at
even k and 25 k + 22 at odd k (11,251 at k = 510, 12,797 at 511), and larger
k wait for a measured cold run.  So is
``pipeline --all`` with ``--max-k`` below 1, which would check nothing, a
coset budget ``--max`` above ``MAX_COSETS``, a ``schreier --images`` name
that is not a generator or is given twice, and an empty ``schreier
--transversal``.  A coset table past
``analysis.MAX_TABLE_CELLS`` entries (cosets times twice the generators) is
an overflow, exit 3.

Exit codes: 0 all checks pass; 1 a check failed; 2 usage or parse error;
3 coset enumeration overflow; 141 (128 + SIGPIPE, as a shell reports a
command that a closed pipe ended) the reader of standard output closed it,
with no ``error:`` line.  A failed certificate, such as a pipeline stage
whose Tietze move budget runs out or a coset table that does not validate, is
exit 1 with one ``error:`` line.  ``--simplify`` notes a spent move budget on stderr.

Each subcommand loads only the layers it runs: ``grammar``, ``presentation`` and
``analysis`` always, ``schreier`` for ``schreier``, ``pipeline`` and
``regression``, ``pipeline`` for the last two, ``curves`` for ``verify-config``;
``json`` is imported only to print ``--json`` output.
The names ``benchmarks/tracer.py`` hooks (``parse_presentation``,
``tietze_simplify``, ``todd_coxeter``, ``verify_persson_configuration``) stay
globals here, looked up when a command runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import CosetLimitExceeded, abelian_invariants, todd_coxeter
from .grammar import (MAX_LETTERS, ParseError, parse_braid, parse_int, parse_presentation,
                      parse_word)
from .presentation import Presentation, tietze_simplify
from .word_core import Alphabet, GenSym

# the strand count ``act`` and the coset budget ``--max`` accept
MAX_STRANDS, MAX_COSETS = 10_000, 10**6
MAX_ACT_LETTERS = 4 * MAX_LETTERS  # the letters ``act`` may write over all its steps
MAX_K = 510  # the largest k accepted (module docstring)


# ---------------------------------------------------------------------------
# commands

def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(stage: str, data: dict, as_json: bool, text: str) -> None:
    if as_json:
        import json  # loaded only to print JSON
        print(json.dumps({"schema": "braidpi/1", "stage": stage, **data},
                         indent=2, sort_keys=True))
    else:
        print(text)


def _sizes(p: Presentation) -> dict:
    return {"generators": [str(g) for g in p.alphabet], "relatorCount": len(p.codes)}


def verify_persson_configuration():
    from . import curves  # loaded by verify-config alone
    return curves.verify_persson_configuration()


def _cmd_act(args) -> int:
    from .braid import Braid, _iact
    if args.n < 2:                       # before the braid, whose letters would be foreign
        raise ValueError(f"--n {args.n} is fewer than 2 strands")
    if args.n > MAX_STRANDS:
        raise ValueError(f"--n {args.n} is more than {MAX_STRANDS} strands")
    braid = parse_braid(args.braid, args.n)
    fiber = Alphabet(GenSym("d", i) for i in range(1, args.n + 1))
    image = fiber.encode(parse_word(args.word, fiber))
    written = 0
    for letter in braid.letters:
        image = _iact(Braid(args.n, (letter,)), image, fiber)
        written += len(image)
        if len(image) > MAX_LETTERS:
            raise ValueError(f"the image passes {MAX_LETTERS} letters")
        if written > MAX_ACT_LETTERS:
            raise ValueError(f"the steps write more than {MAX_ACT_LETTERS} letters")
    text = str(fiber.decode(image))
    _emit("act", {"image": text}, args.json, text)
    return 0


def _simplify(p: Presentation, budget: int = 20000) -> Presentation:
    p, log = tietze_simplify(p, budget=budget)
    if log.exhausted:
        print(f"note: the Tietze budget of {budget} moves ran out", file=sys.stderr)
    return p


def _cmd_present(args) -> int:
    p = parse_presentation(_read_source(args.file))
    if args.simplify:
        p = _simplify(p, args.budget)
    _emit("present", _sizes(p), args.json, str(p))
    return 0


def _cmd_schreier(args) -> int:
    from .schreier import subgroup_presentation
    p = parse_presentation(_read_source(args.file))
    n = args.mod
    if n * (2 * n * len(p.alphabet) + p.total_length()) > MAX_LETTERS:
        raise ValueError(f"--mod {n}: the kernel presentation would pass "
                         f"{MAX_LETTERS} letters")
    images = {}
    for item in args.images.split(","):
        name, _, value = item.partition("=")
        if not value:
            raise ParseError(f"image spec {item!r} is not NAME=RESIDUE", 1, 1)
        sym = GenSym.parse(name.strip())
        if sym not in p.alphabet or sym in images:
            why = "is given twice" if sym in images else "is not a generator"
            raise ValueError(f"--images: {sym} {why}")
        images[sym] = parse_int(value)
    reps = None
    if args.transversal is not None:
        reps, longest = [], max(n - 1, 0)
        for part in args.transversal.split(";"):
            reps.append(parse_word(part, p.alphabet))
            if len(reps[-1]) > longest:
                raise ValueError(f"--transversal: a word of {len(reps[-1])} letters; a Schreier "
                                 f"transversal for --mod {n} has none past {longest}")
    sub, gens = subgroup_presentation(p, n, images, reps)
    if args.simplify:
        sub = _simplify(sub)
    lines = [str(sub), ""]
    for sym, w in gens.backmap.items():
        lines.append(f"{sym} = {w}")
    backmap = {str(s): str(w) for s, w in gens.backmap.items()}
    _emit("schreier", {**_sizes(sub), "backmap": backmap}, args.json, "\n".join(lines))
    return 0


def _cmd_tc(args) -> int:
    p = parse_presentation(_read_source(args.file))
    table = todd_coxeter(p, args.max)
    _emit("tc", {**_sizes(p), "order": table.order}, args.json, f"order {table.order}")
    return 0


def _cmd_abelianize(args) -> int:
    p = parse_presentation(_read_source(args.file))
    inv = abelian_invariants(p)
    data = {**_sizes(p), "invariants": list(inv.torsion), "freeRank": inv.free_rank}
    _emit("abelianize", data, args.json, str(inv))
    return 0


def _report_text(report) -> str:
    lines = [f"k = {report.k} (m = {report.m})"]
    for s in report.stages:
        lines.append(f"  stage {s.name}: {len(s.generators)} generators, "
                     f"{s.relator_count} relators (length {s.total_length})")
    lines.append(f"order = {report.order}")
    lines.append(f"invariants = {report.invariants}")
    lines.append(f"abelian = {report.abelian}")
    failed = [i for i, ok in report.regressions.items() if not ok]
    lines.append(f"regressions: {len(report.regressions) - len(failed)}/"
                 f"{len(report.regressions)} hold")
    for ident in failed:
        lines.append(f"  FAILED: {ident}")
    for s in report.suspects:
        lines.append(f"suspect {s.ident}: {s.summary()}")
    return "\n".join(lines)


def _check_ks(ks: list[int]) -> None:
    """Each k >= 1, the orbifold kernel for m = k + 1 (at least 2 m^2
    letters: the m rewrites of G^m and of s^m) within MAX_LETTERS, and k
    at most MAX_K."""
    if not ks:
        raise ValueError("no k to run: --max-k must be >= 1")
    if not all(k >= 1 for k in ks):
        raise ValueError("k must be >= 1")
    m = max(ks, default=0) + 1
    if 2 * m * m > MAX_LETTERS:
        raise ValueError(f"k = {m - 1}: the orbifold kernel presentation would pass "
                         f"{MAX_LETTERS} letters")
    if m - 1 > MAX_K:
        raise ValueError(f"k = {m - 1}: the cold runs past MAX_K = {MAX_K} are not yet "
                         "measured")


def _cmd_pipeline(args) -> int:
    from . import pipeline
    ks = list(range(1, args.max_k + 1)) if args.all else [args.k]
    _check_ks(ks)
    # one Pipeline shares the k-independent stages across every k
    run = pipeline.Pipeline().run if args.all else pipeline.run
    code = 0
    reports = []
    for k in ks:
        report = run(k, max_cosets=args.max)
        reports.append(report)
        if not (report.abelian and report.all_regressions_hold):
            code = 1
    if args.json:
        import json
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if not args.all else payload,
                         indent=2, sort_keys=True))
    else:
        print("\n\n".join(_report_text(r) for r in reports))
    return code


def _cmd_regression(args) -> int:
    from . import pipeline
    _check_ks([args.k])
    report = pipeline.run(args.k, max_cosets=args.max)
    full = report.to_dict()
    data = {"k": args.k, "regressions": full["regressions"], "suspects": full["suspects"]}
    lines = []
    for ident, ok in sorted(report.regressions.items()):
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {ident}")
    for s in report.suspects:
        lines.append(f"[VERDICT] {s.ident}: {s.summary()}")
    _emit("regression", data, args.json, "\n".join(lines))
    return 0 if report.all_regressions_hold else 1


def _cmd_verify_config(args) -> int:
    report = verify_persson_configuration()
    data = {"items": [{"item": c.item, "title": c.title, "passed": c.passed,
                       "detail": c.detail} for c in report.checks],
            "allPassed": report.all_passed}
    _emit("verify-config", data, args.json, str(report))
    return 0 if report.all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="braidpi",
        description="Braid-monodromy group computations and exact curve checks")
    sub = ap.add_subparsers(dest="command", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true", help="structured output")
        return p

    p = with_json(sub.add_parser("act", help="apply a braid to a word"))
    p.add_argument("--braid", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=parse_int, default=5, help="strand count (default 5)")
    p.set_defaults(func=_cmd_act)

    p = with_json(sub.add_parser("present", help="parse and normalize a presentation"))
    p.add_argument("file", help="file path or - for stdin")
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--budget", type=parse_int, default=20000)
    p.set_defaults(func=_cmd_present)

    p = with_json(sub.add_parser("schreier", help="subgroup presentation of a cyclic kernel"))
    p.add_argument("file")
    p.add_argument("--mod", type=parse_int, required=True)
    p.add_argument("--images", required=True, help="e.g. d1=1,d2=1,G=0")
    p.add_argument("--transversal", help="semicolon-separated words, 1 for identity")
    p.add_argument("--simplify", action="store_true")
    p.set_defaults(func=_cmd_schreier)

    p = with_json(sub.add_parser("tc", help="Todd-Coxeter order of a presented group"))
    p.add_argument("file")
    p.add_argument("--max", type=parse_int, default=MAX_COSETS, help="coset budget")
    p.set_defaults(func=_cmd_tc)

    p = with_json(sub.add_parser("abelianize", help="abelian invariants"))
    p.add_argument("file")
    p.set_defaults(func=_cmd_abelianize)

    p = with_json(sub.add_parser("pipeline", help="run the cover computation"))
    p.add_argument("--k", type=parse_int, default=1)
    p.add_argument("--all", action="store_true", help="run k = 1..max-k")
    p.add_argument("--max-k", type=parse_int, default=6, dest="max_k")
    p.add_argument("--max", type=parse_int, default=MAX_COSETS, help="coset budget")
    p.set_defaults(func=_cmd_pipeline)

    p = with_json(sub.add_parser("regression", help="trace the printed-relation corpus"))
    p.add_argument("--k", type=parse_int, default=1)
    p.add_argument("--max", type=parse_int, default=MAX_COSETS, help="coset budget")
    p.set_defaults(func=_cmd_regression)

    p = with_json(sub.add_parser("verify-config", help="exact checks of the curve configuration"))
    p.set_defaults(func=_cmd_verify_config)

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "max", 0) > MAX_COSETS:
            raise ValueError(f"--max {args.max} is more than {MAX_COSETS} cosets")
        code = args.func(args)
        sys.stdout.flush()               # a reader gone shows here, not at exit
        return code
    except BrokenPipeError:              # the exit's flush writes to nobody
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CosetLimitExceeded as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:        # pipeline.PipelineError and the table checks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
