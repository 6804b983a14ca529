"""Reidemeister-Schreier presentations for kernels of maps onto Z/n.

Given a presentation of G and a surjection q: G -> Z/n (a residue for
each generator under which every relator maps to 0), the kernel is
presented on the Schreier generators

    s(r, g) = u_r g u_{r + q(g)}^-1        r a residue, g a generator,

where u_r is the transversal representative of residue r.  Generators
whose defining word freely reduces to the identity (the transversal tree
edges) are dropped.  Relators are the rewrites of every parent relator
started at every residue, which equal the rewrites of u_r R u_r^-1
because the transversal is prefix-closed (Schreier property, enforced).

Rewriting walks a word letter by letter, tracking the current residue:
a positive letter g at residue r contributes s(r, g); a negative letter
g^-1 at residue r contributes s(r - q(g), g)^-1.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, NamedTuple

from .presentation import Presentation
from .word_core import Alphabet, GenSym, Word, _Record


class QuotientMapError(ValueError):
    """The cyclic map is inconsistent with the presentation."""


class TransversalError(ValueError):
    """A transversal that does not match the cyclic map."""


class CyclicMap(_Record):
    """Map onto Z/modulus given by a residue for each generator; unhashable."""

    __slots__ = ("modulus", "images")

    def __init__(self, modulus: int, images: Mapping[GenSym, int]):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self._init(modulus, {g: r % modulus for g, r in dict(images).items()})

    @staticmethod
    def onto(p: Presentation, modulus: int, images: Mapping[GenSym, int]) -> "CyclicMap":
        """Validated constructor: defined on all of p, kills every relator, surjective."""
        q = CyclicMap(modulus, images)
        for g in p.alphabet:
            if g not in q.images:
                raise QuotientMapError(f"no image for generator {g}")
        for r in p.relators:
            if q.residue(r) != 0:
                raise QuotientMapError(f"relator {r} maps to {q.residue(r)} != 0 mod {modulus}")
        if modulus > 1:
            d = gcd(modulus, *(q.images[g] for g in p.alphabet))
            if d != 1:
                raise QuotientMapError(f"images generate {d}Z/{modulus}Z, map not onto")
        return q

    def residue(self, w: Word) -> int:
        tot = 0
        for s, e in w:
            try:
                tot += e * self.images[s]
            except KeyError:
                raise QuotientMapError(f"no image for symbol {s}") from None
        return tot % self.modulus


class Transversal(NamedTuple):
    """Coset representatives, one per residue; reps[0] is the identity."""

    reps: tuple[Word, ...]

    @staticmethod
    def of(words: Iterable[Word]) -> "Transversal":
        return Transversal(tuple(words))

    def validate(self, q: CyclicMap) -> None:
        if len(self.reps) != q.modulus:
            raise TransversalError(
                f"{len(self.reps)} representatives for modulus {q.modulus}")
        if not self.reps[0].is_identity():
            raise TransversalError("representative of residue 0 must be the identity")
        rep_set = {r.letters for r in self.reps}
        for r, u in enumerate(self.reps):
            if q.residue(u) != r:
                raise TransversalError(f"representative {u} maps to {q.residue(u)}, not {r}")
            for k in range(len(u)):
                if u.letters[:k] not in rep_set:
                    raise TransversalError(
                        f"not a Schreier transversal: prefix of {u} missing")

    @staticmethod
    def schreier_default(p: Presentation, q: CyclicMap) -> "Transversal":
        """Prefix-closed transversal by breadth-first search in alphabet order."""
        found: dict[int, Word] = {0: Word.identity()}
        frontier = [Word.identity()]
        while len(found) < q.modulus and frontier:
            nxt: list[Word] = []
            for u in frontier:
                for g in p.alphabet:
                    for sign in (1, -1):
                        w = u * Word.gen(g, sign)
                        if len(w) <= len(u):
                            continue
                        r = q.residue(w)
                        if r not in found:
                            found[r] = w
                            nxt.append(w)
            frontier = nxt
        if len(found) < q.modulus:
            raise TransversalError("generators do not reach every residue")
        return Transversal(tuple(found[r] for r in range(q.modulus)))


class SchreierGenSet:
    """Schreier generators of the kernel with their defining parent words.

    ``gens[(r, g)]`` is the subgroup symbol for s(r, g), or None when that
    generator is trivial (u_r g is again a representative).  ``backmap``
    sends each subgroup symbol to its defining word in the parent.
    """

    def __init__(self, parent: Alphabet, q: CyclicMap, t: Transversal,
                 names: Mapping[tuple[int, GenSym], GenSym] | None = None):
        self.q = q
        self.transversal = t
        self.gens: dict[tuple[int, GenSym], GenSym | None] = {}
        self.backmap: dict[GenSym, Word] = {}
        names = dict(names or {})
        ordered: list[GenSym] = []
        for g in parent:
            for r in range(q.modulus):
                w = t.reps[r] * Word.gen(g) * t.reps[(r + q.images[g]) % q.modulus].inverse()
                if w.is_identity():
                    self.gens[(r, g)] = None
                    continue
                sym = names.get((r, g)) or _default_name(g, r, q.modulus)
                self.gens[(r, g)] = sym
                self.backmap[sym] = w
                ordered.append(sym)
        self.alphabet = Alphabet(ordered)

    def rewrite(self, w: Word, start: int = 0) -> Word:
        """Rewrite a kernel word (residue 0) into the subgroup generators."""
        if self.q.residue(w) != 0:
            raise QuotientMapError(f"word {w} is not in the kernel")
        out: list[tuple[GenSym, int]] = []
        r = start
        for g, e in w:
            img = self.q.images[g]
            if e > 0:
                sym = self.gens[(r, g)]
                r = (r + img) % self.q.modulus
            else:
                r = (r - img) % self.q.modulus
                sym = self.gens[(r, g)]
            if sym is not None:
                out.append((sym, e))
        return Word.of(out)


def _default_name(g: GenSym, r: int, modulus: int) -> GenSym:
    if modulus == 1:
        return g
    return GenSym(f"{g}_", r)


def subgroup_presentation(
    p: Presentation,
    q: CyclicMap,
    t: Transversal | None = None,
    names: Mapping[tuple[int, GenSym], GenSym] | None = None,
) -> tuple[Presentation, SchreierGenSet]:
    """Presentation of ker(q) on Schreier generators.

    Rewrites every relator of ``p`` from every residue (the transversal
    conjugates t R t^-1); redundancy among these is left to
    ``tietze_simplify``.  ``names`` may assign chosen symbols to
    particular (residue, generator) pairs.  ``q`` is checked on ``p`` as
    ``CyclicMap.onto`` checks it.
    """
    CyclicMap.onto(p, q.modulus, q.images)
    if t is None:
        t = Transversal.schreier_default(p, q)
    t.validate(q)
    gens = SchreierGenSet(p.alphabet, q, t, names)
    rels = [gens.rewrite(rel, start)
            for rel in p.relators for start in range(q.modulus)]
    return Presentation(gens.alphabet, rels), gens
