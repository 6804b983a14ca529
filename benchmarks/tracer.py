"""Run one ``braidpi`` CLI call with spans around the calls into each layer.

Usage: ``python benchmarks/tracer.py SPANS_FILE ARG...`` runs
``braidpi.cli.main([ARG...])`` and writes its spans to SPANS_FILE as JSON.

Before the call, the public functions are replaced under the names their
callers look up (module globals and class attributes), so the program
itself is unchanged.  A span is ``[name, start, end, parent, sizes]``;
sizes are taken from arguments and results outside the timed interval.
Spans stay in memory until the call returns.  Tietze spans inside the
pipeline are named after the stage that asked for them.  A name missing
from the program is skipped, and its layer then reads 0.
"""

from __future__ import annotations

import json
import sys
import time

from braidpi import analysis, braid, cli, pipeline, presentation, schreier

# Pipeline functions that ask for a Tietze run, and the stage each one labels.
STAGES = (
    (pipeline, "_pi_prime_simplified", "pi_prime"),
    (pipeline, "_z2_parent_simplified", "z2_parent"),
    (pipeline, "_z2_cover_simplified", "z2_cover"),
    (pipeline, "_orbifold_simplified", "orbifold"),
    (getattr(pipeline, "FiniteQuotient", None), "__init__", "quotient"),
)


def _tietze_sizes(args, result):
    p, log = args[0], result[1]
    return {"len_in": p.total_length(), "len_out": result[0].total_length(),
            "moves": len(log.moves)}


# (layer, [(owner, attribute)], sizes(args, result) -> dict)
LAYERS = (
    ("braid.act", [(braid, "act"), (presentation, "act")],
     lambda a, r: {"letters_out": len(r)}),
    ("presentation.tietze", [(pipeline, "tietze_simplify"), (cli, "tietze_simplify")],
     _tietze_sizes),
    ("schreier.subgroup", [(pipeline, "subgroup_presentation"),
                           (schreier, "subgroup_presentation")],
     lambda a, r: {"rels_out": len(r[0].relators)}),
    ("schreier.backmap", [(schreier.SchreierGenSet, "backmap_word")],
     lambda a, r: {"letters_out": len(r)}),
    ("analysis.trace", [(pipeline, "holds_in")],
     lambda a, r: {"letters": len(a[1]) * a[0].order}),
    ("analysis.todd_coxeter", [(pipeline, "todd_coxeter"), (cli, "todd_coxeter")],
     lambda a, r: {"cosets": r.order}),
    ("analysis.smith", [(analysis, "smith_normal_form")],
     lambda a, r: {"rows": len(a[0])}),
    ("curves.verify_config", [(cli, "verify_persson_configuration")],
     lambda a, r: {}),
    ("cli.parse", [(cli, "parse_presentation")],
     lambda a, r: {"letters": r.total_length()}),
    ("pipeline.run", [(pipeline, "run")], lambda a, r: {}),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.stage: list[str] = []

    def span(self, name: str, fn, sizes):
        def traced(*args, **kwargs):
            label = name
            if name == "presentation.tietze" and self.stage:
                label = f"{name}.{self.stage[-1]}"
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = [label, start, end, parent, {}]
            try:
                self.spans[index][4] = sizes(args, result)
            except (AttributeError, TypeError, IndexError):
                pass  # a changed signature loses the sizes, never the call
            return result
        return traced

    def label(self, stage: str, fn):
        def labelled(*args, **kwargs):
            self.stage.append(stage)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stage.pop()
        return labelled

    def install(self) -> None:
        for name, targets, sizes in LAYERS:
            for owner, attr in targets:
                fn = getattr(owner, attr, None)
                if fn is not None:
                    setattr(owner, attr, self.span(name, fn, sizes))
        for owner, attr, stage in STAGES:
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is not None:
                setattr(owner, attr, self.label(stage, fn))


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
