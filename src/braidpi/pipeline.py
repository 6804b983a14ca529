"""The cover computation behind the orbifold fundamental groups.

The plane-curve monodromy enters as five braids on 5 strands (b0, b1,
b-1, b+, b-).  ``pi_prime`` presents the group named Pi' here: generators
d1..d5 (fiber) and G, with stabilizer relations d_i = (d_i) beta for
beta in {b0, b-, b+, b1 b0 b1^-1, b1 b- b1^-1, b1 b+ b1^-1} and
conjugation relations G d_i G^-1 = (d_i) b1^2.

Both cyclic covers are one routine, ``cover``: a map onto Z/n, the
Reidemeister-Schreier presentation of its kernel, and Tietze
simplification.  A ``Pipeline`` holds the stages; its constructor builds
the k-independent ones once.  They are Pi' (raw and simplified), the Z/2
parent (Pi' with d_i^2 and (d1...d5)^2 adjoined) and its Z/2 cover: the
kernel of d_i -> 1, G -> 0 (mod 2) with transversal {1, d1}, on the
Schreier generators D = d1^2, A_i = d1 d_i, B_i = d_i d1^-1, G,
s = d1 G d1^-1.  ``Pipeline.orbifold(k)``, for m = k+1, adjoins G^m and
s^m and takes the kernel of A_i -> 0, G, s -> 1 (mod m) with transversal
{G^i}, producing generators A2_i = G^i A2 G^-i, ..., s_i, and Gh = G^m;
its Tietze stage alone first eliminates the generators that relators of at
most 3 letters define (``tietze_simplify(eliminate_short=True)``).
The resulting group is finite; ``Pipeline.run(k)`` certifies its order,
abelian invariants (Z/4 + Z/4 for odd k, Z/2 + Z/4 for even k) and
commutativity by coset enumeration and Smith normal form.  Nothing is
cached at module level: one Pipeline serves every k, and the module-level
``run`` builds a fresh one.  The raw mechanical relators (up to thousands
of letters) and the simplified ones present the same group, and the
regression corpus never compares relator strings, only consequences.

Regression corpus
-----------------
The corpus is the paper's printed text: one table per stage holds each
displayed relation as printed, and ``regression_corpus(k)`` reads it with
the grammar of ``grammar``, so an entry's ident is the relation it
checks.  A line may carry a ``label:`` and a trailing note such as ``as
printed`` or ``(even index)``; ``(w) b1^-1 = v`` states that b1^-1 takes
w to v.  Only lines that name a word instead of displaying it (a printed
N-letter word, a later printed form) carry the formula next to their
text.  Orbifold lines are templates in i, with subscripts read mod m.

Every entry is checked as a consequence in one finite quotient per k,
``Pipeline.quotient(k)``: the group T(k) obtained by adjoining d_i^2,
(d1..d5)^2, G^m and (d1 G d1^-1)^m to Pi' (of order 2m * |final group|).
``trace_corpus`` pushes each entry down to T(k) through the backmaps (a
Schreier generator u_r g u_{r+q(g)}^-1 is that word) and traces it from
coset 1 of T(k)'s table, after ``run`` has certified that its columns
generate a regular permutation group (``cosets.is_regular``, else
``PipelineError``): a word that fixes coset 1 fixes them all.  The one
suspect entry, the printed (B4 A5)^6 = (B5 A4)^3, is quarantined: both it
and its exponent-6 correction are reported, never asserted.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple

from .analysis import AbelianInvariants, abelian_invariants, trivial_in_abelianization
from .braid import Braid, strand_images
from .cosets import CosetTable, _col, is_abelian, is_regular, todd_coxeter
from .grammar import parse_word
from .presentation import IntWord, Presentation, _icyc, add_relators
from .schreier import SchreierGenSet, subgroup_presentation
from .tietze import tietze_simplify
from .word_core import Alphabet, GenSym, Word, _iinv

D = [None] + [GenSym("d", i) for i in range(1, 6)]
GAMMA = GenSym("G")
DELTA = GenSym("D")
SIGMA = GenSym("s")
A = {i: GenSym("A", i) for i in range(2, 6)}
B = {i: GenSym("B", i) for i in range(2, 6)}
GHAT = GenSym("Gh")


def fiber_alphabet() -> Alphabet:
    return Alphabet(D[1:6])


def full_alphabet() -> Alphabet:
    return Alphabet(D[1:6] + [GAMMA])


def _braid(letters: list[int]) -> Braid:
    return Braid(5, tuple((abs(l), 1 if l > 0 else -1) for l in letters))


def paper_braids() -> dict[str, Braid]:
    """The five monodromy braids, letter for letter as printed."""
    b0 = _braid([4] * 12 + [2] * 2)
    b1 = _braid([-1, 2, 3, 1, -2, 1])
    bm1 = _braid([-4] * 6 + [-2]) * b1 * _braid([2] + [4] * 6)
    bp = _braid([-1, -1, 2, 3, 4, -3, -2, 1, 1])
    bm = _braid([-4] * 6 + [-2]) * bp * _braid([2] + [4] * 6)
    return {"b0": b0, "b1": b1, "b-1": bm1, "b+": bp, "b-": bm}


def _monodromy_codes(fiber: Alphabet, beta: Braid, gamma: int = 0) -> list[IntWord]:
    """Per strand d_i of the fiber, cyclically reduced in the codes of the fiber
    followed by one generator coded ``gamma``: d_i^-1 (d_i) beta if ``gamma`` is
    0, else gamma d_i gamma^-1 ((d_i) beta)^-1."""
    images = strand_images(beta, fiber)
    if not gamma:
        return [_icyc([-i] + images.get(i, [i])) for i in range(1, len(fiber) + 1)]
    return [_icyc((gamma, i, -gamma) + _iinv(images.get(i, (i,))))
            for i in range(1, len(fiber) + 1)]


def pi_prime() -> Presentation:
    """Pi': six braids stabilize the fiber, and G conjugates it as b1^2 acts."""
    beta = paper_braids()
    b1 = beta["b1"]
    stabilizing = [beta["b0"], beta["b-"], beta["b+"],
                   b1 * beta["b0"] * b1.inverse(),
                   b1 * beta["b-"] * b1.inverse(),
                   b1 * beta["b+"] * b1.inverse()]
    fiber, full = fiber_alphabet(), full_alphabet()
    # the stabilizer relators d_i^-1 (d_i) beta, then the conjugation relators
    codes = [c for beta in stabilizing for c in _monodromy_codes(fiber, beta)]
    return Presentation.from_codes(
        full, codes + _monodromy_codes(fiber, b1 * b1, full.index(GAMMA) + 1))


def _modulus(k: int) -> int:
    if k < 1:
        raise ValueError("cover parameter k must be >= 1")
    return k + 1


class Cover(NamedTuple):
    """One cyclic cover stage: the presentation it covers, the raw kernel
    presentation, its Schreier generators, and the simplified kernel."""

    parent: Presentation
    raw: Presentation
    gens: SchreierGenSet
    simplified: Presentation


def cover(parent: Presentation, modulus: int, images: Mapping[GenSym, int],
          reps: Iterable[Word], names: Mapping[tuple[int, GenSym], GenSym],
          protect: Iterable[GenSym] = (), *, eliminate_short: bool = False) -> Cover:
    """The kernel of ``parent`` -> Z/modulus (``images``) on the Schreier generators
    of the transversal ``reps`` and ``names``, simplified keeping ``protect``
    (first eliminating short-defined generators if ``eliminate_short``)."""
    raw, gens = subgroup_presentation(parent, modulus, images, reps, names)
    return Cover(parent, raw, gens, _simplify(raw, protect, eliminate_short))


def _simplify(p: Presentation, protect: Iterable[GenSym], eliminate_short=False) -> Presentation:
    """The Tietze stage of every step; a stage whose move budget runs out fails."""
    simplified, log = tietze_simplify(p, protect=protect, eliminate_short=eliminate_short)
    if log.exhausted:
        raise PipelineError(f"Tietze move budget exhausted on {p!r}")
    return simplified


# ---------------------------------------------------------------------------
# regression corpus: every relation displayed along the reduction

class CorpusEntry(NamedTuple):
    ident: str
    stage: str          # pi_prime | z2 | orbifold
    relation: Word      # lhs * rhs^-1 over the stage alphabet
    suspect: bool = False
    note: str = ""


# The printed forms of two words the text rewrites step by step: the
# image of d1 d3 under b1^-1, and of the conjugated b- relation.
_D13 = ("d1 d2 d3 d5' d4 d5 d3' d5' d4' d5 d4 d2' d1' d2",
        "d1 d2 d3 d4 d5 d3' d5' d2' d1' d2",
        "d1 d2 d3 d4 d5 d3' d2' d1'")
_CONJ_BM = ("d1 d2 d3 d5' d4' (d3' d5' d4' d5 d4 d5 d3) d4 d5 d3' d2' d1'",
            "d1 d2 d3 d5' d4' (d5' d4' d5 d4 d5) d4 d5 d3' d2' d1'",
            "d1 d2 d3 (d4 d5)^-2 d5 (d4 d5)^2 d3' d2' d1'")

# A row is the printed text of a relation, or (text, relation) where the
# text names the relation instead of displaying it.
_PI_PRIME = (
    "b0 twist: (d4 d5)^6 = (d5 d4)^6",
    "b0 commutation: d2 d3 = d3 d2",
    "b+ : d5 = d2' d1' d2 d1 d2",
    "b- : d3' d1' d3 d1 d3 = (d4 d5)^-3 d5 (d4 d5)^3",
    "conj b0: (d1 d2)^6 = (d2 d1)^6",
    "conj b0: d5 d3 d5' d4' d5 d4 = d4' d5 d4 d5 d3 d5'",
    "conj b+: d5 = d2' d1 d2 d4' d5 d3 d5' d4 d2' d1' d2",
    "conj b-: d3' d1 d2 d1' d3 = (d4 d5)^-2 d5 (d4 d5)^2",
    # the five G-conjugation relations
    "G d2 G' = d2' d1 d2 d3' d5 d3 d2' d1' d2",
    "G d4 G' = d4' d2' d1' d2 d4 d2' d1 d2 d4",
    "G d5 G' = d5",
    ("G d3 G' = (printed 21-letter word)",
     "G d3 G' = d4' d2' d1' d2 d4 d2' d1 d2 d3' d5' d3 d5 d3 d2' d1' d2 d4' d2' d1 d2 d4"),
    "G d1 G' = (G d2 G') d4' d2' d1 d2 d4 (G d2' G')",
    # action identities that the text reduces with earlier relations
    "(d4 d5) b1^-1 = d1 d2 (modulo the b+ relation)",
    "((d4 d5)^-3 d5 (d4 d5)^3) b1^-1 = (d1 d2)^-4 d2 (d1 d2)^4",
    ("(d1 d3) b1^-1 = (printed 14-letter word)", f"(d1 d3) b1^-1 = {_D13[0]}"),
    ("(d1 d3) b1^-1, second printed form", f"{_D13[0]} = {_D13[1]}"),
    ("(d1 d3) b1^-1, third printed form", f"{_D13[1]} = {_D13[2]}"),
    ("conjugated b- relation, first printed form",
     f"((d1 d3)' d3 d1 d3) b1^-1 = {_CONJ_BM[0]}"),
    ("conjugated b- relation, second printed form", f"{_CONJ_BM[0]} = {_CONJ_BM[1]}"),
    # the third form restates the second, so it is checked against the action
    ("conjugated b- relation, third printed form",
     f"((d1 d3)' d3 d1 d3) b1^-1 = {_CONJ_BM[2]}"),
    "d3 (d4 d5)^-2 d5 (d4 d5)^2 d3' = (d1 d2)^-5 d2 (d1 d2)^5",
    "(d1 d2)^-5 d2 (d1 d2)^5 = d1 d2 d1'",
)

_Z2 = (
    "(B4 A5)^6 = (B5 A4)^3 as printed", "(B4 A5)^6 = (B5 A4)^6 (exponent-6 correction)",
    "B3 A2 = B2 A3", "B5 = B2^3", "B3^3 = (B5 A4)^6 B5", "A2^12 = 1",
    "B5 A3 B5 A4 B5 A4 = B4 A5 B4 A5 B3 A5", "B5 = B2^2 A4 B5 A3 B5 A4 B2^2",
    "B3 B2 B3 = (B5 A4)^4 B5", "s A2^2 G' = A4 B2^2 A4", "G B2 s' = B2^2 A3 B5 A3 B2^2",
    "G B3 s' = B4 A2^2 B4 A2^2 B3 A5 B3 A5 B3 A2^2 B4 A2^2 B4",
    "G B4 s' = B4 A2^2 B4 A2^2 B4", "G B5 s' = B5", "A2 B3 A4 B5 B2 A3 B4 A5 = 1",
    "A2 A3' A4 A5' A2' A3 A4' A5 = 1", "D = 1 (the cancellation relation)",
    "B2 A2 = 1", "B3 A3 = 1", "B4 A4 = 1", "B5 A5 = 1", "B4 A2 B4 = B5 A3 B5",
    "B2^4 = 1", "B5 = A2", "(A2 A4)^2 = A3 A2 B3^2", "B3 B2 = A2 A3", "B3 = B4 A2 B4",
    "A2 A4 = A4 A2", "A4^4 = 1", "A5 = A2'", "A3 = A2' A4^2", "A2^4 = 1",
    "s A2^2 G' = A2^2 A4^2", "G A2' = A2' s", "G A2 A4^2 = A2 A4^2 s", "G A4' = A4 s",
    "G A2 = A2 s",
)

# the suspect entry, its note, and the entry that corrects its exponent
_SUSPECT = "z2: (B4 A5)^6 = (B5 A4)^3 as printed"
_SUSPECT_NOTE = "suspected typo: exponent 3 should read 6"
_CORRECTED = "z2: (B4 A5)^6 = (B5 A4)^6 (exponent-6 correction)"

# Templates in i with j = i + 1, and even = 2i, odd = 2i + 1 mod m;
# subscripts are read mod m.
_ORBIFOLD = (
    "A2_{i}^4 = 1", "A4_{i}^4 = 1", "A2_{i} A4_{i} = A4_{i} A2_{i}",
    "s_{i} A2_{j}^2 = A2_{i}^2 A4_{i}^2", "A2_{j}' = A2_{i}' s_{i}",
    "A2_{j} A4_{j}^2 = A2_{i} A4_{i}^2 s_{i}", "A4_{j}' = A4_{i} s_{i}",
    "A2_{j} = A2_{i} s_{i}",
    # the six displayed expressions for s_i
    "s_{i} = A2_{i}^2 A4_{i}^2 A2_{j}^2", "s_{i} = A2_{i} A2_{j}'",
    "s_{i} = A4_{i}^2 A2_{i}' A2_{j} A4_{j}^2", "s_{i} = A2_{i}' A4_{i}^2 A4_{j}^2 A2_{j}",
    "s_{i} = A4_{i}' A4_{j}'", "s_{i} = A2_{i}' A2_{j}",
    "A2_{i}^2 = A2_0^2", "s_{i} = A4_{i}^2", "A4_{i} = A4_0", "s_{i} = A4_0^2",
    "A4_0^2 = A2_{i}' A2_{j}", "A4_0^2 = A2_{i} A2_{j}'",
    "A2_{even} = A2_0 (even index)", "A2_{odd} = A2_0 A4_0^2 (odd index)",
)

# the subscripts a template is read with once, renamed per i (no printed one is this large)
_MARKERS = {name: 10**9 + n for n, name in enumerate(("i", "j", "even", "odd"))}

# a trailing note: "as printed", or a parenthesized phrase in words
_NOTE = re.compile(r" (as printed|\([^()]*[a-z]{3}[^()]*\))$")
_ACTION = re.compile(r"\((.+)\) b1\^-1 = (.+)")


def _printed(text: str) -> Word:
    """The relation a printed line displays, after any ``label:`` and before
    any note; ``(w) b1^-1 = v`` says that b1^-1 takes w to v."""
    text = _NOTE.sub("", text.rpartition(": ")[2])
    action = _ACTION.fullmatch(text)
    if action is None:
        return parse_word(text)
    w, v = (parse_word(side) for side in action.groups())
    return paper_braids()["b1"].inverse().act(w, fiber_alphabet()) * v.inverse()


def regression_corpus(k: int) -> list[CorpusEntry]:
    """Every relation displayed along the reduction, read from its printed
    text and instantiated for this k."""
    m = _modulus(k)
    corpus = []
    for stage, table in (("pi_prime", _PI_PRIME), ("z2", _Z2)):
        for row in table:
            text, formula = (row, row) if isinstance(row, str) else row
            ident = f"{stage}: {text}"
            suspect = ident == _SUSPECT
            corpus.append(CorpusEntry(ident, stage, _printed(formula), suspect,
                                      _SUSPECT_NOTE if suspect else ""))
    seen: set[tuple] = set()

    def orbifold(text: str, rel: Word | None = None) -> None:
        """Add the relation, subscripts read mod m, unless an earlier entry has it."""
        rel = _printed(text) if rel is None else rel
        rel = Word.of((GenSym(s.name, s.index % m), e) for s, e in rel)
        key = rel.cyclically_reduced().letters
        if key and key not in seen:
            seen.add(key)
            corpus.append(CorpusEntry(f"orbifold: {text}", "orbifold", rel))

    # each template is read once, its subscripts i, j, even, odd as markers
    marked = [_printed(t.format(**_MARKERS)) for t in _ORBIFOLD]
    for i in range(m):
        values = {"i": i, "j": i + 1, "even": 2 * i % m, "odd": (2 * i + 1) % m}
        at = {_MARKERS[name]: value for name, value in values.items()}
        for template, rel in zip(_ORBIFOLD, marked):
            orbifold(template.format(**values),
                     Word.of((GenSym(s.name, at.get(s.index, s.index)), e) for s, e in rel))
    orbifold("s_0 s_1 ... s_(m-1) = 1", Word.of((GenSym("s_", i), 1) for i in range(m)))
    orbifold("A4_0^(2m) = 1", Word.gen(GenSym("A4_", 0)) ** (2 * m))
    if m % 2:
        orbifold("A4_0^2 = 1 (m odd)")
    orbifold("commutative: A2_0 A4_0 = A4_0 A2_0")
    return corpus


def trace_corpus(t: CosetTable, z2: SchreierGenSet, orbifold: SchreierGenSet,
                 corpus: Iterable[CorpusEntry]) -> dict[str, bool]:
    """By ident: whether each entry, pushed down to T(k), fixes coset 1 of ``t``.  A
    stage letter is one step G^a w G^b, w in t's columns: a Z/2 letter is its backmap,
    s(r, g) is G^r (g's backmap) G^-(r+q(g)).  c . G^e is read off G's cycle through c."""
    cols, n, gamma = t.cols, t.order, t.cols[_col(t.alphabet.index(GAMMA) + 1)]
    cycle, place = [None] * (n + 1), [0] * (n + 1)  # G's cycle through each coset, its place there
    for c in range(1, n + 1):
        x, cyc = c, []
        while cycle[x] is None:
            cycle[x], place[x] = cyc, len(cyc)
            cyc.append(x)
            x = gamma[x]

    def step(a: int, w: Word, b: int) -> tuple[tuple, tuple]:  # G^a w G^b, and its inverse
        c = tuple(_col(l) for l in t.alphabet.encode(w))
        return (a, c, b), (-b, tuple(x ^ 1 for x in reversed(c)), -a)

    steps = {"pi_prime": {s: step(0, Word.gen(s), 0) for s in t.alphabet},
             "z2": {s: step(0, w, 0) for s, w in z2.backmap.items()},
             "orbifold": {s: step(r, z2.backmap[g], -r - orbifold.images[g])
                          for (r, g), s in orbifold.gens.items() if s is not None}}
    holds = {}
    for e in corpus:
        i, letters = 1, steps[e.stage]
        for s, sign in e.relation:
            a, c, b = letters[s][sign < 0]
            if a:
                i = cycle[i][(place[i] + a) % len(cycle[i])]
            for x in c:
                i = cols[x][i]
            if b:
                i = cycle[i][(place[i] + b) % len(cycle[i])]
        holds[e.ident] = i == 1
    return holds


# ---------------------------------------------------------------------------
# reports

class StageInfo(NamedTuple):
    name: str
    generators: tuple[str, ...]
    relator_count: int
    total_length: int

    @staticmethod
    def of(name: str, p: Presentation) -> "StageInfo":
        return StageInfo(name, tuple(str(g) for g in p.alphabet),
                         len(p.codes), p.total_length())


class SuspectVerdict(NamedTuple):
    ident: str
    printed_holds: bool
    corrected_holds: bool
    printed_refuted_in_abelianization: bool

    def summary(self) -> str:
        return (f"printed variant holds: {self.printed_holds}; "
                f"exponent-6 variant holds: {self.corrected_holds}; "
                f"printed variant refuted in the double-cover abelianization: "
                f"{self.printed_refuted_in_abelianization}")


class PipelineReport(NamedTuple):
    k: int
    m: int
    stages: tuple[StageInfo, ...]
    order: int
    invariants: AbelianInvariants
    abelian: bool
    regressions: dict[str, bool]
    suspects: tuple[SuspectVerdict, ...]

    @property
    def all_regressions_hold(self) -> bool:
        return all(self.regressions.values())

    def to_dict(self) -> dict:
        return {
            "schema": "braidpi/1",
            "k": self.k,
            "m": self.m,
            "stages": [{"stage": s.name, "generators": list(s.generators),
                        "relatorCount": s.relator_count, "totalLength": s.total_length}
                       for s in self.stages],
            "order": self.order,
            "invariants": list(self.invariants.torsion),
            "freeRank": self.invariants.free_rank,
            "abelian": self.abelian,
            "regressions": dict(sorted(self.regressions.items())),
            "suspects": [{"id": s.ident, "printedHolds": s.printed_holds,
                          "exponent6Holds": s.corrected_holds,
                          "printedRefutedInAbelianization":
                              s.printed_refuted_in_abelianization}
                         for s in self.suspects],
        }


class PipelineError(AssertionError):
    """An internal consistency claim of the computation failed."""


class Pipeline:
    """The stages of the computation.  The constructor builds the ones that
    do not depend on k; ``orbifold``, ``quotient`` and ``run`` build the
    k-dependent ones on every call."""

    def __init__(self):
        full = full_alphabet()
        self.pi_prime = pi_prime()
        self.pi_prime_simplified = _simplify(self.pi_prime, full)
        twist = Word.of([(D[i], 1) for i in range(1, 6)])
        squares = [Word.gen(D[i]) ** 2 for i in range(1, 6)] + [twist ** 2]
        self.z2_parent = _simplify(add_relators(self.pi_prime_simplified, squares), full)
        names = {(1, D[1]): DELTA, (0, GAMMA): GAMMA, (1, GAMMA): SIGMA}
        names.update({(0, D[i]): B[i] for i in range(2, 6)})
        names.update({(1, D[i]): A[i] for i in range(2, 6)})
        # the orbifold stage is named through A2, A4, G and s
        self.z2 = cover(self.z2_parent, 2, {**{D[i]: 1 for i in range(1, 6)}, GAMMA: 0},
                        [Word.identity(), Word.gen(D[1])], names, (A[2], A[4], GAMMA, SIGMA))

    def orbifold(self, k: int) -> Cover:
        """The Z/m cover, m = k+1, of the simplified Z/2 cover with G^m, s^m adjoined."""
        m = _modulus(k)
        g = Word.gen(GAMMA)
        parent = add_relators(self.z2.simplified, [g ** m, Word.gen(SIGMA) ** m])
        images = {s: self.z2.gens.backmap[s].exponent_sums().get(GAMMA, 0)
                  for s in parent.alphabet}
        return cover(parent, m, images, [g ** i for i in range(m)], {(m - 1, GAMMA): GHAT},
                     eliminate_short=True)

    def quotient(self, k: int, max_cosets: int = 10**6) -> CosetTable:
        """Coset table of T(k): the Z/2 parent with G^m and s^m = (d1 G d1^-1)^m."""
        m = _modulus(k)
        rels = [Word.gen(GAMMA) ** m, self.z2.gens.backmap[SIGMA] ** m]
        return todd_coxeter(add_relators(self.z2_parent, rels), max_cosets)

    def run(self, k: int, max_cosets: int = 10**6) -> PipelineReport:
        """Build the stages for k, certify the result, and trace the corpus on T(k)."""
        orb = self.orbifold(k)
        stages = tuple(StageInfo.of(name, p) for name, p in (
            ("pi_prime", self.pi_prime),
            ("pi_prime_simplified", self.pi_prime_simplified),
            ("z2_parent", self.z2_parent),
            ("z2_cover", self.z2.raw),
            ("z2_cover_simplified", self.z2.simplified),
            ("orbifold_parent", orb.parent),
            ("orbifold_cover", orb.raw),
            ("orbifold_simplified", orb.simplified),
        ))
        final = orb.simplified
        table = todd_coxeter(final, max_cosets)
        invs = abelian_invariants(final)
        abelian = is_abelian(table)
        if abelian and invs.free_rank == 0 and table.order != invs.order():
            raise PipelineError(
                f"order {table.order} != product of invariants {invs.order()}")
        quotient = self.quotient(k, max_cosets)
        # index law: T(k) -> Z/2 -> Z/m ties both coset tables to the covers
        if quotient.order != 2 * (k + 1) * table.order:
            raise PipelineError(f"|T({k})| = {quotient.order} != 2 * {k + 1} * {table.order}")
        # T(k)'s group regular: a word that fixes coset 1 fixes every coset
        if not is_regular(quotient):
            raise PipelineError(f"the coset table of T({k}) is not regular")
        corpus = regression_corpus(k)
        holds = trace_corpus(quotient, self.z2.gens, orb.gens, corpus)
        regressions = {e.ident: holds[e.ident] for e in corpus if not e.suspect}
        # the raw and simplified Z/2 covers present one group, and the raw
        # one has every generator the printed suspect is written in
        suspects = tuple(
            SuspectVerdict(e.ident, holds[e.ident], holds[_CORRECTED],
                           not trivial_in_abelianization(self.z2.raw, e.relation))
            for e in corpus if e.suspect)
        return PipelineReport(k, k + 1, stages, table.order, invs, abelian,
                              regressions, suspects)


def run(k: int, max_cosets: int = 10**6) -> PipelineReport:
    """Execute all stages for cover parameter k in a fresh Pipeline."""
    _modulus(k)
    return Pipeline().run(k, max_cosets)
