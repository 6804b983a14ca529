"""Reference checks of what one CLI call printed.

Every expectation comes from ``inputs.py`` (group theory and the way the
inputs were built) or from the paper, never from ``braidpi``.  The
presentation reader below is the benchmark's own, so a change to the
program's parser cannot hide a change in its output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

# Paper values per parity of k: group order and abelian invariants.
PAPER_ORDER = {1: 16, 0: 8}
PAPER_INVARIANTS = {1: [4, 4], 0: [2, 4]}
PIPELINE_STAGES = 8
# Stages of the pipeline report that hold a Tietze-simplified presentation.
SIMPLIFIED_STAGES = ("pi_prime_simplified", "z2_parent", "z2_cover_simplified",
                     "orbifold_simplified")

_LETTER = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:'|\^-?\d+)?")


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    simplified_len: int = 0
    text: str = ""  # presentation handed to a chained call


def presentation_length(text: str) -> tuple[list[str], int]:
    """(generators, total relator length) of ``< gens | r1, r2, ... >``.

    Raises ValueError on anything else, including a relator letter that is
    not a declared generator.
    """
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">") and "|" in text):
        raise ValueError("not a presentation")
    head, _, body = text[1:-1].partition("|")
    gens = head.split()
    declared = set(gens)
    total = 0
    for rel in filter(None, (r.strip() for r in body.split(","))):
        for tok in rel.split():
            if not _LETTER.fullmatch(tok):
                raise ValueError(f"bad letter {tok!r}")
            name, _, exp = tok.rstrip("'").partition("^")
            if name not in declared:
                raise ValueError(f"undeclared generator {name!r}")
            total += abs(int(exp)) if exp else 1
    return gens, total


def _check_pipeline(expect: dict, out: str) -> Outcome:
    report = json.loads(out)
    k = expect["k"]
    parity = k % 2
    problems = []
    if report.get("k") != k or report.get("m") != k + 1:
        problems.append("wrong k or m")
    if report.get("order") != PAPER_ORDER[parity]:
        problems.append(f"order {report.get('order')}")
    if report.get("invariants") != PAPER_INVARIANTS[parity] or report.get("freeRank") != 0:
        problems.append(f"invariants {report.get('invariants')} + Z^{report.get('freeRank')}")
    if report.get("abelian") is not True:
        problems.append("not abelian")
    regressions = report.get("regressions") or {}
    if not regressions or not all(v is True for v in regressions.values()):
        problems.append("a regression does not hold")
    stages = report.get("stages") or []
    if len(stages) != PIPELINE_STAGES:
        problems.append(f"{len(stages)} stages")
    suspects = report.get("suspects") or []
    if len(suspects) != 1 or (suspects[0].get("printedHolds"),
                              suspects[0].get("exponent6Holds"),
                              suspects[0].get("printedRefutedInAbelianization")) \
            != (False, True, True):
        problems.append("suspect verdict")
    length = sum(s.get("totalLength", 0) for s in stages
                 if s.get("stage") in SIMPLIFIED_STAGES)
    return Outcome(not problems, "; ".join(problems), length)


def _check_presentation(expect: dict, out: str) -> Outcome:
    first = out.strip().split("\n", 1)[0]
    _, length = presentation_length(first)
    return Outcome(True, "", length, first)


def _check_tc(expect: dict, out: str) -> Outcome:
    got = out.strip()
    want = f"order {expect['order']}"
    return Outcome(got == want, "" if got == want else f"{got!r}, want {want!r}")


def _check_abelianize(expect: dict, out: str) -> Outcome:
    data = json.loads(out)
    got = (data.get("invariants"), data.get("freeRank"))
    want = (expect["invariants"], expect["free_rank"])
    return Outcome(got == want, "" if got == want else f"{got}, want {want}")


def _check_verify_config(expect: dict, out: str) -> Outcome:
    data = json.loads(out)
    items = data.get("items") or []
    ok = (data.get("allPassed") is True and len(items) == expect["items"]
          and all(i.get("passed") is True for i in items))
    return Outcome(ok, "" if ok else "configuration check failed")


_CHECKS = {"pipeline": _check_pipeline, "presentation": _check_presentation,
           "tc": _check_tc, "abelianize": _check_abelianize,
           "verify-config": _check_verify_config}


def check(expect: dict, returncode: int | None, out: str) -> Outcome:
    """Judge one call; ``returncode`` None means it was killed on timeout."""
    if returncode is None:
        return Outcome(False, "timed out")
    if returncode != 0:
        return Outcome(False, f"exit code {returncode}")
    try:
        return _CHECKS[expect["kind"]](expect, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return Outcome(False, f"unreadable output: {exc!r}")
