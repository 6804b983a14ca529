"""Reidemeister-Schreier presentations for kernels of maps onto Z/n.

``subgroup_presentation`` is the one entry point.  Given a presentation
of G and a surjection q: G -> Z/n (a residue for each generator under
which every relator maps to 0), the kernel is presented on the Schreier
generators

    s(r, g) = u_r g u_{r + q(g)}^-1        r a residue, g a generator,

where u_r is the transversal representative of residue r.  Generators
whose defining word freely reduces to the identity (the transversal tree
edges) are dropped.  Relators are the rewrites of every parent relator
started at every residue, which equal the rewrites of u_r R u_r^-1
because the transversal is prefix-closed (Schreier property, enforced).
The map and a given transversal are checked once, on entry; the default
transversal is found breadth-first.  A ``SchreierGenSet`` records the
kernel: the map, the transversal, the generators and their defining words.

Rewriting walks a word letter by letter, tracking the current residue:
a positive letter g at residue r contributes s(r, g); a negative letter
g^-1 at residue r contributes s(r - q(g), g)^-1.  One routine does it, on
the parent's int codes, so the kernel's relators are never ``Word``s.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping

from .presentation import IntWord, Presentation
from .word_core import Alphabet, GenSym, Word


class QuotientMapError(ValueError):
    """The cyclic map is inconsistent with the presentation."""


class TransversalError(ValueError):
    """A transversal that does not match the cyclic map."""


def _residue(w: Word, modulus: int, images: Mapping[GenSym, int]) -> int:
    if missing := [s for s, _ in w if s not in images]:
        raise QuotientMapError(f"no image for symbol {missing[0]}")
    return sum(e * images[s] for s, e in w) % modulus


def _breadth_first(parent: Alphabet, modulus: int,
                   images: Mapping[GenSym, int]) -> tuple[Word, ...]:
    """Prefix-closed transversal by breadth-first search in alphabet order;
    the map is onto, so the search reaches every residue."""
    found, queue = {0: Word.identity()}, [0]
    for ru in queue:                # the queue grows as the search goes
        u = found[ru]
        for g in parent:
            for sign in (1, -1):
                w, r = u * Word.gen(g, sign), (ru + sign * images[g]) % modulus
                if len(w) > len(u) and r not in found:
                    found[r] = w
                    queue.append(r)
    return tuple(found[r] for r in range(modulus))


class SchreierGenSet:
    """The kernel of the map g -> ``images[g]`` onto Z/modulus, with the
    transversal ``reps`` (u_r = ``reps[r]``) and the Schreier generators.

    ``gens[(r, g)]`` is the subgroup symbol for s(r, g), or None when that
    generator is trivial (u_r g is again a representative).  ``backmap``
    sends each subgroup symbol to its defining word in the parent.
    """

    def __init__(self, parent: Alphabet, modulus: int, images: Mapping[GenSym, int],
                 reps: tuple[Word, ...],
                 names: Mapping[tuple[int, GenSym], GenSym] | None = None):
        self.parent, self.modulus, self.images, self.reps = parent, modulus, images, reps
        self.gens: dict[tuple[int, GenSym], GenSym | None] = {}
        self.backmap: dict[GenSym, Word] = {}
        names = names or {}
        ordered: list[GenSym] = []
        for g in parent:
            for r in range(modulus):
                w = reps[r] * Word.gen(g) * reps[(r + images[g]) % modulus].inverse()
                if w.is_identity():
                    self.gens[(r, g)] = None
                    continue
                sym = names.get((r, g)) or (g if modulus == 1 else GenSym(f"{g}_", r))
                self.gens[(r, g)] = sym
                self.backmap[sym] = w
                ordered.append(sym)
        self.alphabet = Alphabet(ordered)
        # per parent generator: q(g), and the kernel code of s(r, g) at r (0 if trivial)
        code = {sym: i for i, sym in enumerate(ordered, 1)}
        self._steps = [(images[g], [code.get(self.gens[r, g], 0) for r in range(modulus)])
                       for g in parent]

    def residue(self, w: Word) -> int:
        return _residue(w, self.modulus, self.images)

    def rewrite(self, w: Word, start: int = 0) -> Word:
        """Rewrite a kernel word (residue 0) into the subgroup generators."""
        if self.residue(w) != 0:
            raise QuotientMapError(f"word {w} is not in the kernel")
        return self.alphabet.decode(self._rewrite(self.parent.encode(w), start))

    def _rewrite(self, w: IntWord, start: int) -> list[int]:
        """The kernel code, not yet reduced, of the parent code w read from
        residue ``start``."""
        out, r, n = [], start, self.modulus
        for l in w:
            q, codes = self._steps[abs(l) - 1]
            if l < 0:
                r = (r - q) % n
            if codes[r]:
                out.append(codes[r] if l > 0 else -codes[r])
            if l > 0:
                r = (r + q) % n
        return out


def subgroup_presentation(
    p: Presentation,
    modulus: int,
    images: Mapping[GenSym, int],
    reps: Iterable[Word] | None = None,
    names: Mapping[tuple[int, GenSym], GenSym] | None = None,
) -> tuple[Presentation, SchreierGenSet]:
    """Presentation of the kernel of ``p`` -> Z/modulus, g -> ``images[g]``.

    The map must be defined on all of ``p``, kill every relator and be
    onto; ``reps`` defaults to the breadth-first Schreier transversal.
    Rewrites every relator of ``p`` from every residue (the transversal
    conjugates t R t^-1); redundancy among these is left to
    ``tietze_simplify``.  ``names`` may assign chosen symbols to
    particular (residue, generator) pairs.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    images = {g: r % modulus for g, r in images.items()}
    for g in p.alphabet:
        if g not in images:
            raise QuotientMapError(f"no image for generator {g}")
    shift = [images[g] for g in p.alphabet]
    for c in p.codes:
        if res := sum(shift[l - 1] if l > 0 else -shift[-l - 1] for l in c) % modulus:
            raise QuotientMapError(f"relator {p.alphabet.decode(c)} maps to {res} "
                                   f"!= 0 mod {modulus}")
    if modulus > 1:
        d = gcd(modulus, *(images[g] for g in p.alphabet))
        if d != 1:
            raise QuotientMapError(f"images generate {d}Z/{modulus}Z, map not onto")
    if reps is None:
        reps = _breadth_first(p.alphabet, modulus, images)
    else:
        reps = tuple(reps)
        if len(reps) != modulus:
            raise TransversalError(f"{len(reps)} representatives for modulus {modulus}")
        if not reps[0].is_identity():
            raise TransversalError("representative of residue 0 must be the identity")
        # all proper prefixes of u are representatives when the one a letter
        # shorter is a representative with this property
        closed: dict[tuple, bool] = {}
        for u in sorted(reps, key=len):
            closed[u.letters] = not u or closed.get(u.letters[:-1], False)
        for r, u in enumerate(reps):
            if _residue(u, modulus, images) != r:
                raise TransversalError(
                    f"representative {u} maps to {_residue(u, modulus, images)}, not {r}")
            if not closed[u.letters]:
                raise TransversalError(f"not a Schreier transversal: prefix of {u} missing")
    gens = SchreierGenSet(p.alphabet, modulus, images, reps, names)
    rels = [gens._rewrite(c, start) for c in p.codes for start in range(modulus)]
    return Presentation.from_codes(gens.alphabet, rels), gens
