"""Independent word-enumeration oracle for small finite groups.

Enumerates all freely reduced words up to a length bound, merges words
known equal in the group (appending a relator, or any rotation or
inverse of one, and letter-by-letter congruence propagation), and reads
off a candidate multiplication table on the classes.  The count of
classes is certified to be the group order by explicit checks:

  * every class has a representative shorter than the bound (so the
    table is total),
  * each generator acts as a permutation of the classes, inverse to its
    inverse generator's action,
  * every relator traces every class back to itself.

With these, the class set carries an action of the presented group G
that is both transitive and a retract of G (representatives multiply
back), so the class count equals |G|.  Under-merging or too small a
bound can only fail a check, never certify a wrong order.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from braidpi.presentation import Presentation


class Inconclusive(RuntimeError):
    """The length bound was too small to certify the order."""


def _reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for l in word:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@lru_cache(maxsize=None)
def group_order_by_enumeration(p: Presentation, max_len: int) -> int:
    ngens = len(p.alphabet)
    letters = [g for i in range(1, ngens + 1) for g in (i, -i)]
    relators: list[tuple[int, ...]] = []
    for r in p.codes:
        for u in (r, tuple(-x for x in reversed(r))):
            for i in range(len(u)):
                relators.append(u[i:] + u[:i])
    relators = sorted(set(relators))

    words: set[tuple[int, ...]] = set()
    frontier = [()]
    words.add(())
    while frontier:
        nxt = []
        for w in frontier:
            if len(w) == max_len:
                continue
            for g in letters:
                if w and w[-1] == -g:
                    continue
                w2 = w + (g,)
                if w2 not in words:
                    words.add(w2)
                    nxt.append(w2)
        frontier = nxt

    parent: dict[tuple[int, ...], tuple[int, ...]] = {w: w for w in words}

    def find(w):
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    queue: deque[tuple[tuple[int, ...], tuple[int, ...]]] = deque()
    for w in words:
        for r in relators:
            v = _reduce(w + r)
            if len(v) <= max_len:
                queue.append((w, v))
            v = _reduce(r + w)
            if len(v) <= max_len:
                queue.append((w, v))
    while queue:
        a, b = queue.popleft()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
        for g in letters:
            for u, v in ((ra + (g,), rb + (g,)), ((g,) + ra, (g,) + rb)):
                u, v = _reduce(u), _reduce(v)
                if len(u) <= max_len and len(v) <= max_len:
                    queue.append((u, v))

    classes: dict[tuple[int, ...], tuple[int, ...]] = {}
    for w in words:
        root = find(w)
        if root not in classes or (len(w), w) < (len(classes[root]), classes[root]):
            classes[root] = w
    reps = {root: rep for root, rep in classes.items()}
    if any(len(rep) >= max_len for rep in reps.values()):
        raise Inconclusive(f"a class has no representative shorter than {max_len}")

    index = {root: i for i, root in enumerate(sorted(reps, key=lambda r: (len(reps[r]), reps[r])))}
    act: dict[tuple[int, int], int] = {}
    for root, rep in reps.items():
        for g in letters:
            act[(index[root], g)] = index[find(_reduce(rep + (g,)))]
    n = len(index)
    for g in letters:
        images = [act[(c, g)] for c in range(n)]
        if sorted(images) != list(range(n)):
            raise Inconclusive(f"letter {g} does not act as a permutation")
        for c in range(n):
            if act[(act[(c, g)], -g)] != c:
                raise Inconclusive(f"letters {g}, {-g} do not act inversely")
    for r in p.codes:
        for c in range(n):
            cur = c
            for g in r:
                cur = act[(cur, g)]
            if cur != c:
                raise Inconclusive("a relator does not act trivially")
    return n
