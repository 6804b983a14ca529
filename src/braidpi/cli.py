"""Command-line surface.

Words, braids and presentations are read by the grammar in ``grammar``
(for example ``d2' d1' d2 d1 d2`` or ``< a b | a^4, b^4, a b a' b' >``);
its bounds ``MAX_NESTING`` and ``MAX_LETTERS`` make parse errors.  ``act`` on
more than ``MAX_STRANDS`` strands or with an image past ``MAX_LETTERS``
letters, and ``schreier`` with a modulus n where n * (generators + total
relator length) passes ``MAX_LETTERS``, are usage errors.  So are
``pipeline --k K``, ``pipeline --all --max-k K`` and ``regression --k K``
when 2 (K + 1)^2 passes ``MAX_LETTERS``: the orbifold kernel holds the
K + 1 rewrites of G^(K+1) and of s^(K+1).  So is ``pipeline --all`` with
``--max-k`` below 1, which would check nothing, and a coset budget ``--max``
above ``MAX_COSETS``, and a ``schreier --images`` name that is not a
generator or is given twice.  A coset table past ``analysis.MAX_TABLE_CELLS``
entries (cosets times twice the generators) is an overflow, exit 3.

Exit codes: 0 all checks pass; 1 a check failed; 2 usage or parse error;
3 coset enumeration overflow.  ``--simplify`` notes a spent move budget on stderr.

Each subcommand loads only the layers it runs: ``grammar``, ``presentation`` and
``analysis`` always, ``schreier`` for ``schreier``, ``pipeline`` and
``regression``, ``pipeline`` for the last two, ``curves`` for ``verify-config``.
The names ``benchmarks/tracer.py`` hooks (``parse_presentation``,
``tietze_simplify``, ``todd_coxeter``, ``verify_persson_configuration``) stay
globals here, looked up when a command runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import CosetLimitExceeded, abelian_invariants, todd_coxeter
from .grammar import MAX_LETTERS, ParseError, parse_braid, parse_presentation, parse_word
from .presentation import Presentation, tietze_simplify
from .word_core import Alphabet, GenSym

# the strand count ``act`` and the coset budget ``--max`` accept
MAX_STRANDS, MAX_COSETS = 10_000, 10**6


# ---------------------------------------------------------------------------
# commands

def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(stage: str, data: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps({"schema": "braidpi/1", "stage": stage, **data},
                         indent=2, sort_keys=True))
    else:
        print(text)


def _sizes(p: Presentation) -> dict:
    return {"generators": [str(g) for g in p.alphabet], "relatorCount": len(p.relators)}


def verify_persson_configuration():
    from . import curves  # loaded by verify-config alone
    return curves.verify_persson_configuration()


def _cmd_act(args) -> int:
    from .braid import Braid
    if args.n > MAX_STRANDS:
        raise ValueError(f"--n {args.n} is more than {MAX_STRANDS} strands")
    braid = parse_braid(args.braid, args.n)
    fiber = Alphabet(GenSym("d", i) for i in range(1, args.n + 1))
    image = parse_word(args.word, fiber)
    for letter in braid.letters:
        image = Braid(args.n, (letter,)).act(image, fiber)
        if len(image) > MAX_LETTERS:
            raise ValueError(f"the image passes {MAX_LETTERS} letters")
    _emit("act", {"image": str(image)}, args.json, str(image))
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
    from .schreier import CyclicMap, Transversal, subgroup_presentation
    p = parse_presentation(_read_source(args.file))
    if args.mod * (len(p.alphabet) + p.total_length()) > MAX_LETTERS:
        raise ValueError(f"--mod {args.mod}: the kernel presentation would pass "
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
        images[sym] = int(value)
    q = CyclicMap.onto(p, args.mod, images)
    t = None
    if args.transversal:
        reps = [parse_word(part, p.alphabet) for part in args.transversal.split(";")]
        t = Transversal.of(reps)
    sub, gens = subgroup_presentation(p, q, t)
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
    """Each k >= 1, and the orbifold kernel for m = k + 1 (at least 2 m^2
    letters: the m rewrites of G^m and of s^m) within MAX_LETTERS."""
    if not ks:
        raise ValueError("no k to run: --max-k must be >= 1")
    if not all(k >= 1 for k in ks):
        raise ValueError("k must be >= 1")
    m = max(ks, default=0) + 1
    if 2 * m * m > MAX_LETTERS:
        raise ValueError(f"k = {m - 1}: the orbifold kernel presentation would pass "
                         f"{MAX_LETTERS} letters")


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
    p.add_argument("--n", type=int, default=5, help="strand count (default 5)")
    p.set_defaults(func=_cmd_act)

    p = with_json(sub.add_parser("present", help="parse and normalize a presentation"))
    p.add_argument("file", help="file path or - for stdin")
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--budget", type=int, default=20000)
    p.set_defaults(func=_cmd_present)

    p = with_json(sub.add_parser("schreier", help="subgroup presentation of a cyclic kernel"))
    p.add_argument("file")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--images", required=True, help="e.g. d1=1,d2=1,G=0")
    p.add_argument("--transversal", help="semicolon-separated words, 1 for identity")
    p.add_argument("--simplify", action="store_true")
    p.set_defaults(func=_cmd_schreier)

    p = with_json(sub.add_parser("tc", help="Todd-Coxeter order of a presented group"))
    p.add_argument("file")
    p.add_argument("--max", type=int, default=MAX_COSETS, help="coset budget")
    p.set_defaults(func=_cmd_tc)

    p = with_json(sub.add_parser("abelianize", help="abelian invariants"))
    p.add_argument("file")
    p.set_defaults(func=_cmd_abelianize)

    p = with_json(sub.add_parser("pipeline", help="run the cover computation"))
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--all", action="store_true", help="run k = 1..max-k")
    p.add_argument("--max-k", type=int, default=6, dest="max_k")
    p.add_argument("--max", type=int, default=MAX_COSETS, help="coset budget")
    p.set_defaults(func=_cmd_pipeline)

    p = with_json(sub.add_parser("regression", help="trace the printed-relation corpus"))
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max", type=int, default=MAX_COSETS, help="coset budget")
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
        return args.func(args)
    except CosetLimitExceeded as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
