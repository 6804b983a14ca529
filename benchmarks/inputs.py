"""Workload inputs: the CLI calls each pass makes, and what each must print.

A call is an argument vector for ``braidpi`` plus optional stdin text and
the facts a correct answer has to show.  Those facts come from group
theory and from how the inputs are built, never from ``braidpi``:

* ``ladder`` / ``deep``: the paper's values for the cover parameter k.
* ``groups``: orders m^n n! of the reflection groups G(m,1,n) (S_n when
  there is no order-m generator), the index law for Schreier kernels,
  abelianizations Z/2 + Z/m, and relation matrices U D V whose invariants
  are D by construction.

The seed only renames and reorders: generator names and order, relator
order, rotation and inversion, and the unimodular mixing.  Sizes are
fixed per workload, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

LADDER_KS = (1, 2, 3, 4, 5, 6)
DEEP_K = 20


@dataclass
class Call:
    """One cold CLI call.  ``expect`` holds the reference facts for checks.py.

    ``feeds`` names the index of an earlier call in the same pass whose
    printed presentation becomes this call's stdin (a chained check).
    """

    argv: list[str]
    expect: dict
    stdin: str = ""
    feeds: int | None = None
    label: str = ""


@dataclass
class Workload:
    name: str
    seed: int
    calls: list[Call] = field(default_factory=list)

    def digest(self) -> str:
        """Hash of every argument, stdin text and expectation of the pass."""
        blob = json.dumps([[c.argv, c.stdin, c.expect, c.feeds] for c in self.calls],
                          sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# pipeline workloads

def _pipeline_call(k: int) -> Call:
    return Call(["pipeline", "--k", str(k), "--json"], {"kind": "pipeline", "k": k},
                label=f"pipeline k={k}")


def ladder(seed: int) -> Workload:
    return Workload("ladder", seed, [_pipeline_call(k) for k in LADDER_KS])


def deep(seed: int) -> Workload:
    return Workload("deep", seed, [_pipeline_call(DEEP_K)])


# ---------------------------------------------------------------------------
# generic group inputs

Letter = tuple[int, int]  # (generator number, +-1)


def _power(g: int, e: int) -> list[Letter]:
    return [(g, 1 if e > 0 else -1)] * abs(e)


def _word(*parts: tuple[int, int]) -> list[Letter]:
    out: list[Letter] = []
    for g, e in parts:
        out += _power(g, e)
    return out


def reflection_group(m: int, n: int) -> tuple[int, list[list[Letter]]]:
    """G(m,1,n) as (generator count, relators).

    Generators: t_1..t_{n-1} are numbered 0..n-2, and s (order m, absent
    when m = 1) is n-1.  Relators: s^m, t_i^2, s t1 s t1 = t1 s t1 s,
    (t_i t_{i+1})^3, (t_i t_j)^2 for |i-j| > 1 and [s, t_j] for j >= 2.
    Order m^n n!; m = 1 is S_n and m = 2 the Coxeter group B_n.
    """
    t = list(range(n - 1))
    rels: list[list[Letter]] = [_word((g, 2)) for g in t]
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            rels.append(_word((t[i], 1), (t[j], 1)) * (3 if j == i + 1 else 2))
    if m == 1:
        return n - 1, rels
    s = n - 1
    rels.append(_word((s, m)))
    rels.append(_word((s, 1), (t[0], 1), (s, 1), (t[0], 1),
                      (s, -1), (t[0], -1), (s, -1), (t[0], -1)))
    for j in t[1:]:
        rels.append(_word((s, 1), (j, 1), (s, -1), (j, -1)))
    return n, rels


def reflection_order(m: int, n: int) -> int:
    return m ** n * math.factorial(n)


def reflection_abelianization(m: int) -> list[int]:
    """Invariant factors of G(m,1,n)^ab = Z/2 (the t_i, all conjugate) + Z/m (s)."""
    return [f for f in (math.gcd(2, m), 2 * m // math.gcd(2, m)) if f > 1]


class Namer:
    """Seeded generator names and presentation layout."""

    LETTERS = "abcefghjkpqruvwxyz"

    def __init__(self, rng: random.Random):
        self.rng = rng

    def names(self, count: int) -> list[str]:
        pool = [f"{c}{i}" for c in self.LETTERS for i in range(1, 10)]
        return self.rng.sample(pool, count)

    def layout(self, ngens: int, rels: list[list[Letter]]) -> tuple[list[str], str]:
        """Render with seeded names, generator order, relator order,
        rotation and inversion.  Returns (names by generator number, text)."""
        names = self.names(ngens)
        order = list(range(ngens))
        self.rng.shuffle(order)
        words = []
        for r in rels:
            cut = self.rng.randrange(len(r))
            r = r[cut:] + r[:cut]
            if self.rng.random() < 0.5:
                r = [(g, -e) for g, e in reversed(r)]
            words.append(" ".join(names[g] + ("'" if e < 0 else "") for g, e in r))
        self.rng.shuffle(words)
        header = " ".join(names[g] for g in order)
        return names, f"< {header} | {', '.join(words)} >"


def _unimodular(n: int, rng: random.Random, ops: int) -> list[list[int]]:
    """Product of ``ops`` elementary operations row_i += +-row_j and swaps."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            u[i], u[j] = u[j], u[i]
        else:
            sign = rng.choice((1, -1))
            u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    return u


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def relation_matrix_presentation(diag: list[int], cols: int, rng: random.Random,
                                 namer: Namer) -> tuple[str, list[int], int]:
    """Presentation whose relation matrix is U D V for the chain ``diag``.

    Returns (text, torsion invariants, free rank).
    """
    rows = len(diag)
    d = [[diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    m = _matmul(_matmul(_unimodular(rows, rng, 2 * rows), d),
                _unimodular(cols, rng, 2 * cols))
    names = namer.names(cols)
    words = []
    for row in m:
        letters = [j for j in range(cols) if row[j]]
        rng.shuffle(letters)
        if letters:
            words.append(" ".join(f"{names[j]}^{row[j]}" for j in letters))
    rng.shuffle(words)
    torsion = [x for x in diag if x > 1]
    free = cols - sum(1 for x in diag if x)
    return f"< {' '.join(names)} | {', '.join(words)} >", torsion, free


# Fixed sizes of the groups workload; the seed never changes these.
PRESENT = ((1, 6), (1, 7), (2, 5), (3, 4))          # present --simplify, then tc
ABELIANIZE = ((1, 7), (2, 5), (3, 4), (4, 3))       # abelianize
SCHREIER = (                                       # schreier --simplify, then tc
    # (m, n, modulus, image of s, image of each t_i)
    (1, 8, 2, 0, 1),      # A_8, order 20160
    (2, 5, 2, 1, 0),      # kernel of s in B_5, order 1920
    (3, 4, 3, 1, 0),      # kernel of s in G(3,1,4), order 648
    (5, 3, 5, 1, 0),      # kernel of s in G(5,1,3), order 150
)
MATRICES = (
    ((1, 1, 2, 2, 6, 12), 6),
    ((1, 2, 2, 4, 4, 8, 24, 0), 9),
    ((1, 1, 1, 3, 3, 3, 6, 6, 12, 36, 72, 0), 12),
    ((1,) * 16 + (2,) * 12 + (6,) * 10 + (12,) * 6 + (0,) * 4, 50),
)


def groups(seed: int) -> Workload:
    rng = random.Random(seed)
    namer = Namer(rng)
    calls: list[Call] = []

    def chain(first: Call, order: int, label: str) -> None:
        calls.append(first)
        calls.append(Call(["tc", "-"], {"kind": "tc", "order": order},
                          feeds=len(calls) - 1, label=f"tc of {label}"))

    for m, n in PRESENT:
        _, text = namer.layout(*reflection_group(m, n))
        label = f"G({m},1,{n})"
        chain(Call(["present", "-", "--simplify"], {"kind": "presentation"}, text,
                   label=f"present {label}"), reflection_order(m, n), label)
    for m, n in ABELIANIZE:
        _, text = namer.layout(*reflection_group(m, n))
        calls.append(Call(["abelianize", "-", "--json"],
                          {"kind": "abelianize", "invariants": reflection_abelianization(m),
                           "free_rank": 0}, text, label=f"abelianize G({m},1,{n})"))
    for m, n, modulus, s_image, t_image in SCHREIER:
        ngens, rels = reflection_group(m, n)
        names, text = namer.layout(ngens, rels)
        images = [t_image] * (n - 1) + [s_image] * (ngens - (n - 1))
        spec = ",".join(f"{names[g]}={images[g]}" for g in range(ngens))
        label = f"kernel mod {modulus} of G({m},1,{n})"
        chain(Call(["schreier", "-", "--mod", str(modulus), "--images", spec, "--simplify"],
                   {"kind": "presentation"}, text, label=f"schreier {label}"),
              reflection_order(m, n) // modulus, label)
    for diag, cols in MATRICES:
        text, torsion, free = relation_matrix_presentation(list(diag), cols, rng, namer)
        calls.append(Call(["abelianize", "-", "--json"],
                          {"kind": "abelianize", "invariants": torsion, "free_rank": free},
                          text, label=f"abelianize U D V, D = {diag}"))
    calls.append(Call(["verify-config", "--json"], {"kind": "verify-config", "items": 10},
                      label="verify-config"))
    return Workload("groups", seed, calls)


WORKLOADS = {"ladder": ladder, "deep": deep, "groups": groups}
