"""braidpi benchmark: cold CLI calls, checked against independent references.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload ladder|deep|groups --seed N \\
        --seconds S --trace 0|1

Every call is ``python -m braidpi.cli ...`` in a fresh process, one at a
time, so each pays what a user running the command pays; ``pipeline.py``
keeps module-level caches that a second call in one process would reuse.
A pass runs all of a workload's calls once.  Passes repeat until the next
one would end after ``--seconds`` (at least three, so a median can drop
one slow pass).

Times are scaled to a reference machine speed.  Between children the
parent times a fixed pure-Python loop that runs no ``braidpi`` code (the
calibration); each child's wall time is multiplied by ``REFERENCE_S``
over the mean calibration just before and just after it.  On a shared
machine whose speed drifts, that keeps runs minutes apart comparable; the
raw wall times are printed and recorded next to the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain passes with passes run under ``tracer.py`` and reports per-layer
metrics from the traced ones, plus the tracing overhead.  The last line
of standard output is the JSON result; the lines before it name every
metric with its unit, and a ``record:`` line holds the seed, the input
digest, the environment and each call that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PER_PASS = 5
MIN_PASSES = 3
DEADLINE_S = 165.0   # the whole run, set-up included, ends well before 180 s
CALIBRATION_STEPS = 80_000
REFERENCE_S = 0.045  # calibration time that reported seconds are scaled to
# the stage labels tracer.py gives the pipeline's Tietze spans
TIETZE_STAGES = ("pi_prime", "z2_parent", "z2_cover", "orbifold", "quotient")
# span name -> (time metric, call-count metric, {span size: metric})
SPAN_METRICS = {
    "braid.act": ("braid.act_s", "braid.act_calls", {"letters_out": "braid.act_letters_out"}),
    **{f"presentation.tietze.{stage}": (
        f"presentation.tietze.{stage}_s", None,
        {size: f"presentation.tietze.{stage}.{size}" for size in ("len_in", "len_out", "moves")})
       for stage in TIETZE_STAGES},
    "presentation.tietze": ("presentation.tietze_s", "presentation.tietze_calls", {}),
    "schreier.subgroup": ("schreier.subgroup_s", None,
                          {"rels_out": "schreier.subgroup_rels_out"}),
    "schreier.backmap": ("schreier.backmap_s", None,
                         {"letters_out": "schreier.backmap_letters_out"}),
    "analysis.trace": ("analysis.trace_s", "analysis.trace_words",
                       {"letters": "analysis.trace_letters"}),
    "analysis.todd_coxeter": ("analysis.todd_coxeter_s", "analysis.todd_coxeter_calls",
                              {"cosets": "analysis.cosets"}),
    "analysis.smith": ("analysis.smith_s", None, {"rows": "analysis.smith_rows"}),
    "curves.verify_config": ("curves.verify_config_s", None, {}),
    "cli.parse": ("cli.parse_s", None, {"letters": "cli.parse_letters"}),
    "pipeline.run": ("pipeline.run_s", None, {}),
}


def calibrate() -> float:
    """Seconds this process takes for a fixed loop of list, tuple and dict work."""
    start = time.perf_counter()
    x, word, seen = 12345, [], {}
    for _ in range(CALIBRATION_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        letter = x % 11 - 5 or 1
        if word and word[-1] == -letter:
            word.pop()
        else:
            word.append(letter)
        key = tuple(word[-3:])
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


@dataclass
class Child:
    returncode: int | None   # None: killed at the deadline
    stdout: str
    stderr: str
    wall_s: float
    seconds: float           # wall_s scaled to the reference speed
    maxrss_kb: int


@dataclass
class Pass:
    seconds: float = 0.0
    wall_s: float = 0.0
    peak_kb: int = 0
    simplified_len: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)


class Runner:
    """Starts one child at a time and waits for it with ``wait4`` for its rusage."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.calibrations = [calibrate()]

    def run(self, argv: list[str], stdin: str = "") -> Child:
        (self.scratch / "stdin").write_text(stdin)
        timeout = max(0.0, self.deadline - time.monotonic())
        with open(self.scratch / "stdin") as fin, \
                open(self.scratch / "stdout", "w+") as fout, \
                open(self.scratch / "stderr", "w+") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdin=fin, stdout=fout,
                                    stderr=ferr, env=self.env, cwd=ROOT)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            fout.seek(0)
            ferr.seek(0)
            out, err = fout.read(), ferr.read()
        code = None if killed.is_set() else proc.returncode
        before = self.calibrations[-1]
        self.calibrations.append(calibrate())
        scale = REFERENCE_S / ((before + self.calibrations[-1]) / 2)
        return Child(code, out, err, wall, wall * scale, usage.ru_maxrss)


def run_pass(work: inputs.Workload, runner: Runner, traced: bool) -> Pass:
    result = Pass()
    texts: dict[int, str | None] = {}
    spans_file = runner.scratch / "spans.json"
    for i, call in enumerate(work.calls):
        result.attempted += 1
        stdin = call.stdin
        if call.feeds is not None:
            stdin = texts.get(call.feeds)
            if stdin is None:
                texts[i] = None
                result.failures.append([call.label, "input call failed"])
                continue
        if traced:
            spans_file.unlink(missing_ok=True)
            argv = [str(HERE / "tracer.py"), str(spans_file), *call.argv]
        else:
            argv = ["-m", "braidpi.cli", *call.argv]
        child = runner.run(argv, stdin)
        result.seconds += child.seconds
        result.wall_s += child.wall_s
        result.peak_kb = max(result.peak_kb, child.maxrss_kb)
        outcome = checks.check(call.expect, child.returncode, child.stdout)
        texts[i] = outcome.text if outcome.ok else None
        if outcome.ok:
            result.simplified_len += outcome.simplified_len
        else:
            result.failures.append([call.label, outcome.reason, child.stderr[-300:]])
        if traced and spans_file.exists():
            scale = child.seconds / child.wall_s
            try:
                result.spans.append([[name, start * scale, end * scale, parent, sizes]
                                     for name, start, end, parent, sizes
                                     in json.loads(spans_file.read_text())])
            except ValueError:
                pass  # a child killed while writing leaves no spans, and failed above
    return result


def layer_metrics(calls: list[list]) -> dict[str, float]:
    """Per-layer totals over the span lists of one traced pass.

    A layer's time is the sum of its spans; ``pipeline.self_s`` is the
    pipeline span minus its direct traced children.
    """
    m: dict[str, float] = {}
    for time_name, count_name, sizes in SPAN_METRICS.values():
        m[time_name] = 0.0
        m.update({name: 0 for name in (count_name, *sizes.values()) if name})
    m["pipeline.self_s"] = 0.0
    for spans in calls:
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, got) in enumerate(spans):
            keys = [name]
            if name.startswith("presentation.tietze."):
                keys.append("presentation.tietze")
            for key in filter(SPAN_METRICS.__contains__, keys):
                time_name, count_name, sizes = SPAN_METRICS[key]
                m[time_name] += end - start
                if count_name:
                    m[count_name] += 1
                for size, metric in sizes.items():
                    m[metric] += got.get(size, 0)
            if name == "pipeline.run":
                m["pipeline.self_s"] += end - start - child_time[i]
    return m


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git alone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(args) -> dict:
    started = time.monotonic()
    work = inputs.WORKLOADS[args.workload](args.seed)
    scratch = ROOT / ".benchmarks_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(scratch, started + DEADLINE_S)
    load_before = os.getloadavg()
    setup: list[Child] = []
    attempted, failures = 0, []
    try:
        # compiles the bytecode cache once, so set-up samples read it like a user does
        runner.run(["-c", "import braidpi.cli"])
        plain: list[Pass] = []
        traced: list[Pass] = []
        t0 = time.monotonic()
        while True:
            if not args.trace:
                # spread over the run, so the median sees the same machine as the passes
                for _ in range(SETUP_PER_PASS):
                    child = runner.run(["-c", "import braidpi"])
                    attempted += 1
                    if child.returncode == 0:
                        setup.append(child)
                    else:
                        failures.append(["import braidpi", f"exit code {child.returncode}",
                                         child.stderr[-300:]])
            plain.append(run_pass(work, runner, traced=False))
            if args.trace:
                traced.append(run_pass(work, runner, traced=True))
            per_round = statistics.median(p.wall_s for p in plain) + \
                (statistics.median(p.wall_s for p in traced) if traced else 0.0)
            now = time.monotonic()
            if now + per_round > started + DEADLINE_S - 5:
                break
            if len(plain) >= (1 if args.trace else MIN_PASSES) \
                    and now - t0 + per_round > args.seconds:
                break
        for p in plain + traced:
            attempted += p.attempted
            failures += p.failures
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    pass_s = quartiles([p.seconds for p in plain])
    setup_s = quartiles([c.seconds for c in setup] or [0.0])
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        per_pass = [layer_metrics(p.spans) for p in traced]
        for name in per_pass[0]:
            if name.endswith("_s"):
                metrics[name] = (statistics.median(m[name] for m in per_pass), "s")
            else:
                metrics[name] = (statistics.median_low(m[name] for m in per_pass), "count")
        overhead = statistics.median(p.seconds for p in traced) - pass_s[1]
        metrics["trace_overhead_s"] = (overhead, "s")
    else:
        metrics["pass_s"] = (pass_s[1], "s")
        metrics["setup_s"] = (setup_s[1], "s")
        metrics["peak_rss_mb"] = (statistics.median(p.peak_kb for p in plain) / 1024, "MB")
        metrics["simplified_len"] = (statistics.median_low(p.simplified_len for p in plain),
                                     "letters")
    record = {
        "workload": work.name, "seed": args.seed, "inputs_digest": work.digest(),
        "calls_per_pass": len(work.calls), "passes": len(plain),
        "traced_passes": len(traced), "seconds": args.seconds,
        "pass_s_quartiles": pass_s, "setup_s_quartiles": setup_s if setup else None,
        "pass_s_each": [p.seconds for p in plain],
        "wall": {"pass_s_quartiles": quartiles([p.wall_s for p in plain]),
                 "setup_s_quartiles": quartiles([c.wall_s for c in setup]) if setup else None,
                 "calibration_s_quartiles": quartiles(runner.calibrations),
                 "reference_s": REFERENCE_S},
        "failed_share": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
                "commit": git_commit()},
    }
    return {"record": record, "metrics": metrics, "attempted": attempted,
            "failed": len(failures)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "braidpi" / "cli.py").is_file():
        print(f"error: no braidpi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = measure(args)
    record = out["record"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"inputs {record['inputs_digest']}  passes {record['passes']}"
          f"+{record['traced_passes']} traced  calls/pass {record['calls_per_pass']}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(f"  {'failed_share':40s} {record['failed_share']:14.6f} share "
          f"({out['failed']}/{out['attempted']} calls)")
    wall = record["wall"]
    print(f"  unscaled wall pass_s {wall['pass_s_quartiles'][1]:.6f} s, "
          f"calibration {wall['calibration_s_quartiles'][1]:.6f} s "
          f"(reference {REFERENCE_S} s)")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": out["failed"] == 0, "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
