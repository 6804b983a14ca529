"""Exact verification of the conic/cubic tangency configuration.

All arithmetic happens in Q, on ``Fraction`` coefficients and coordinates.
Two checks concern irrational points: the tangency points on the lines
x = +-sqrt(128/125) y (item 7) and the flexes with x/y = +-sqrt(2/3) * 16/13
(item 9).  The conic and the cubic hold x only in x^2, so in coordinates
x = sqrt(d) X (``_root_x``) they stay rational, and so do those points and
lines: d = 10 and d = 6.  A linear change of coordinates keeps incidence,
tangency and smoothness, and multiplies the Hessian by d, so each check
reads the same in X as in x.

``Poly`` is the one sparse polynomial class (any number of variables,
rational coefficients, mixed total degrees allowed), supporting
evaluation, partials, linear substitution and Sylvester resultants
with respect to one variable (cofactor expansion; the matrices here are
at most 5x5).
Curves and lines are forms: ``gradient``, ``hessian`` and
``is_tangent_at`` check homogeneity where the geometry relies on it.

``verify_persson_configuration`` runs the ten exact checks on the
configuration: the conic x^2 + 2zy + z^2 with its tangents x = +-y and
z = 0, and the nodal cubic z^3 + 16 (x^2 + 2yz + z^2)(8y + 5z) meeting
the conic in a single point of multiplicity six.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .word_core import _Record


Exps = tuple[int, ...]


class Poly:
    """Sparse polynomial: exponent tuple -> nonzero Fraction.

    Sums, products, partials and coefficient splits may mix total degrees
    (resultants do); ``degree`` is the largest total degree, 0 for zero.
    """

    def __init__(self, nvars: int, terms: Mapping[Exps, int | Fraction]):
        self.nvars = nvars
        clean: dict[Exps, Fraction] = {}
        for e, c in terms.items():
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e}")
            if c:
                clean[e] = Fraction(c)
        self.terms = clean
        self.degree = max((sum(e) for e in clean), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0) + c
        return Poly(self.nvars, merged)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = Fraction(other)
            return Poly(self.nvars, {e: x * c for e, x in self.terms.items()})
        out: dict[Exps, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("wrong number of coordinates")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            for x, k in zip(pt, e):
                c *= x ** k
            total += c
        return total

    def partial(self, var: int) -> "Poly":
        out: dict[Exps, Fraction] = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            e2 = tuple(x - 1 if i == var else x for i, x in enumerate(e))
            out[e2] = out.get(e2, 0) + c * e[var]
        return Poly(self.nvars, out)

    def substitute_linear(self, images: Sequence["Poly"]) -> "Poly":
        """Plug a linear form (homogeneous of degree 1) in for each variable."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nv = images[0].nvars
        out = Poly(nv, {})
        for e, c in self.terms.items():
            term = Poly(nv, {(0,) * nv: c})
            for img, k in zip(images, e):
                for _ in range(k):
                    term = term * img
            out = out + term
        return out

    def coefficients_in(self, var: int) -> list["Poly"]:
        """Coefficients of var^0, var^1, ... as polynomials in the other variables
        (returned with the same variable slots, exponent 0 in ``var``)."""
        top = max((e[var] for e in self.terms), default=0)
        out = [dict() for _ in range(top + 1)]
        for e, c in self.terms.items():
            e2 = tuple(0 if i == var else x for i, x in enumerate(e))
            out[e[var]][e2] = c
        return [Poly(self.nvars, d) for d in out]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = "xyz" if self.nvars == 3 else "st"
        parts = []
        for e in sorted(self.terms, reverse=True):
            mono = "*".join(f"{names[i]}^{k}" if k > 1 else names[i]
                            for i, k in enumerate(e) if k)
            c = str(self.terms[e])
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)

    __repr__ = __str__


def _check_form(curve: Poly) -> None:
    if not curve.is_homogeneous():
        raise ValueError("the curve must be a homogeneous polynomial (a form)")


def poly3(terms: Mapping[Exps, int | Fraction]) -> Poly:
    return Poly(3, terms)


def unipoly(coeffs: Sequence) -> Poly:
    """Univariate polynomial from ascending coefficients."""
    return Poly(1, {(i,): c for i, c in enumerate(coeffs)})


def line(a, b, c) -> Poly:
    return poly3({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})


class ProjPoint(_Record):
    """Projective point; equality through vanishing 2x2 minors."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, Fraction, Fraction]):
        self._init(coords)

    @staticmethod
    def of(x, y, z) -> "ProjPoint":
        p = (Fraction(x), Fraction(y), Fraction(z))
        if not any(p):
            raise ValueError("(0:0:0) is not a projective point")
        return ProjPoint(p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        a, b = self.coords, other.coords
        return all(a[i] * b[j] == a[j] * b[i] for i, j in ((0, 1), (0, 2), (1, 2)))

    def __hash__(self) -> int:
        return 0  # projective equality is up to scale; hash cannot see it

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


def gradient(f: Poly, p: ProjPoint) -> tuple[Fraction, Fraction, Fraction]:
    _check_form(f)
    return tuple(f.partial(v).evaluate(p.coords) for v in range(3))


def cubic_discriminant(a0, a1, a2, a3):
    """Discriminant of a0 x^3 + a1 x^2 + a2 x + a3; works for scalars or
    polynomial coefficients (anything with + - * and integer scaling)."""
    return (a1 * a1 * (a2 * a2) - 4 * (a0 * (a2 * (a2 * a2)))
            - 4 * (a1 * (a1 * a1) * a3) - 27 * (a0 * a0 * (a3 * a3))
            + 18 * (a0 * a1 * (a2 * a3)))


def family_cubic(lam) -> Poly:
    """z^3 + (x^2 + 2yz + z^2)(2 lam^3 y + (2 lam^3 - 3 lam^2) z)."""
    lam = Fraction(lam)
    l2 = lam * lam
    l3 = l2 * lam
    lin = poly3({(0, 1, 0): 2 * l3, (0, 0, 1): 2 * l3 - 3 * l2})
    return poly3({(0, 0, 3): 1}) + conic() * lin


def conic() -> Poly:
    """x^2 + 2zy + z^2: tangent to x = +-y and to z = 0."""
    return poly3({(2, 0, 0): 1, (0, 1, 1): 2, (0, 0, 2): 1})


def nodal_cubic() -> Poly:
    """z^3 + 16 (x^2 + 2yz + z^2)(8y + 5z): the family member at parameter 4."""
    return family_cubic(4)


def _root_x(f: Poly, d: int) -> Poly:
    """f(sqrt(d) X, y, z) as a form in (X, y, z): the coefficient of x^(2j)
    times d^j.  Exact only for a form even in x; any odd power raises."""
    if any(e[0] % 2 for e in f.terms):
        raise ValueError("the form has an odd power of x")
    return Poly(f.nvars, {e: c * d ** (e[0] // 2) for e, c in f.terms.items()})


def sylvester_matrix(f: Poly, g: Poly, var: int) -> list[list[Poly]]:
    fc = f.coefficients_in(var)
    gc = g.coefficients_in(var)
    n, m = len(fc) - 1, len(gc) - 1
    if n < 1 or m < 1:
        raise ValueError("both inputs need positive degree in the chosen variable")
    size = n + m
    zero = Poly(f.nvars, {})
    mat = [[zero] * size for _ in range(size)]
    for i in range(m):
        for j, c in enumerate(reversed(fc)):
            mat[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(reversed(gc)):
            mat[m + i][i + j] = c
    return mat


def _poly_det(mat) -> Poly:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = Poly(mat[0][0].nvars, {})
    for i in range(n):
        c = mat[i][0]
        if c.is_zero():
            continue
        minor = [row[1:] for k, row in enumerate(mat) if k != i]
        term = c * _poly_det(minor)
        total = total - term if i % 2 else total + term
    return total


def sylvester_resultant(f: Poly, g: Poly, var: int) -> Poly:
    """Determinant of the Sylvester matrix in ``var`` (f's coefficients on top)."""
    return _poly_det(sylvester_matrix(f, g, var))


def hessian(f: Poly) -> Poly:
    """Determinant of the matrix of second partials."""
    if f.nvars != 3 or f.degree < 2:
        raise ValueError("Hessian needs a ternary form of degree >= 2")
    _check_form(f)
    h = [[f.partial(i).partial(j) for j in range(3)] for i in range(3)]
    return (h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
            - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
            + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0]))


# ---------------------------------------------------------------------------
# tangency

def is_tangent_at(curve: Poly, l: Poly, p: ProjPoint) -> bool:
    """Does ``l`` meet ``curve`` at ``p`` with multiplicity at least two?

    Tangency means the curve's gradient at p is a multiple of the line's
    coefficients (zero at a singular point): by the chain rule, that is the
    curve restricted to the line vanishing at p with both its partials.
    Raises if p is not on both the line and the curve, or if the curve is
    not a form or ``l`` not a linear form.
    """
    _check_form(curve)
    if l.degree != 1 or not l.is_homogeneous():
        raise ValueError("second argument must be a line")
    if l.evaluate(p.coords):
        raise ValueError(f"point {p} not on the line")
    if curve.evaluate(p.coords):
        raise ValueError(f"point {p} not on the curve")
    g = gradient(curve, p)
    c = [l.terms.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return all(g[i] * c[j] == g[j] * c[i] for i, j in ((0, 1), (0, 2), (1, 2)))


# ---------------------------------------------------------------------------
# the configuration report

class CheckResult(NamedTuple):
    item: int
    title: str
    passed: bool
    detail: str


class ConfigReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] ({c.item}) {c.title}: {c.detail}"
                 for c in self.checks]
        return "\n".join(lines)


def _tangent_at_all(curve: Poly, *pairs: tuple[Poly, ProjPoint]) -> bool:
    """Is ``curve`` tangent to each line at its point?  False, not an error,
    when a point is off its line or the curve."""
    try:
        return all(is_tangent_at(curve, l, p) for l, p in pairs)
    except ValueError:
        return False


def verify_persson_configuration() -> ConfigReport:
    """Run the ten exact checks; failures are reported, never raised."""
    q = conic()
    c = nodal_cubic()
    l1 = line(1, -1, 0)
    lm1 = line(1, 1, 0)
    p = ProjPoint.of(0, 1, 0)
    node = ProjPoint.of(0, 9, -16)
    checks: list[CheckResult] = []

    def record(item: int, title: str, passed: bool, detail: str):
        checks.append(CheckResult(item, title, passed, detail))

    # (1) common tangents of the conic
    t1 = ProjPoint.of(1, 1, -1)
    t2 = ProjPoint.of(1, -1, 1)
    ok = _tangent_at_all(q, (l1, t1), (lm1, t2))
    record(1, "conic tangent to x=y at (1:1:-1) and to x=-y at (1:-1:1)", ok,
           "restriction has a double root at each point" if ok else "tangency fails")

    # (2) conic tangent to z = 0 at the base point
    ok = _tangent_at_all(q, (line(0, 0, 1), p))
    record(2, "conic tangent to z=0 at (0:1:0)", ok,
           "double contact at the base point" if ok else "tangency fails")

    # (3) single intersection point of multiplicity six
    res = sylvester_resultant(c, q, 2)
    ok = set(res.terms) == {(6, 0, 0)} and not res.is_zero()
    detail = (f"Res_z(cubic, conic) = ({res.terms.get((6, 0, 0))}) * x^6"
              if ok else f"resultant has support {sorted(res.terms)}")
    record(3, "cubic meets conic only at the base point (intersection 6P)", ok, detail)

    # (4) node location, distinct from every tangency point
    grad = gradient(c, node)
    on = not c.evaluate(node.coords) and not any(grad)
    tangencies = [t1, t2, ProjPoint.of(-3, -3, 4), ProjPoint.of(3, -3, 4), p]
    distinct = all(node != t for t in tangencies)
    record(4, "cubic is singular exactly at (0:9:-16), away from all tangency points",
           on and distinct,
           "gradient vanishes there; node differs from the six special points"
           if on and distinct else "singularity check fails")

    # (5) tangent cone at the node: 8x^2 + u^2 with u = 16y + 9z (no real factors)
    x_img = poly3({(1, 0, 0): 1})
    y_img = poly3({(0, 1, 0): Fraction(1, 16), (0, 0, 1): Fraction(-9, 16)})
    z_img = poly3({(0, 0, 1): 1})
    cu = c.substitute_linear([x_img, y_img, z_img])  # coordinates (x, u, z)
    cone = Poly(3, {e: coeff for e, coeff in cu.terms.items() if e[0] + e[1] == 2})
    expected = poly3({(2, 0, 1): 8, (0, 2, 1): 1})
    ok = cone == expected
    # as binary quadratic 8x^2 + u^2: discriminant 0 - 4*8 < 0, so complex factors
    record(5, "tangent cone at the node is 8x^2 + u^2, an isolated real point", ok,
           "binary discriminant -32 < 0: complex conjugate tangents" if ok
           else f"cone is {cone}")

    # (6) pencil of tangent lines through (0:0:1): discriminant factorization.
    # Rescale z = 4w and divide by 4^3 (the substitution that makes the cubic
    # monic-free in w); the coefficient of w^k is then (z^k coefficient)/4^(3-k).
    zc = c.coefficients_in(2)
    wc = [zc[k] * Fraction(1, 4 ** (3 - k)) for k in range(4)]
    disc = cubic_discriminant(wc[3], wc[2], wc[1], wc[0])
    target = (poly3({(2, 0, 0): 1})
              * poly3({(2, 0, 0): 1, (0, 2, 0): -1})
              * poly3({(0, 2, 0): 128, (2, 0, 0): -125}))
    ok = disc == target * 324
    record(6, "tangent-line discriminant is 324 * x^2 (x^2 - y^2)(128y^2 - 125x^2)",
           ok, "constant factor 324" if ok else "factorization fails")

    # (7) tangency points on the irrational tangents, plus the discarded candidate,
    # in coordinates x = sqrt(10) X: the line 25X = 8y is x = sqrt(128/125) y
    c10 = _root_x(c, 10)
    lp, lm = line(25, -8, 0), line(25, 8, 0)
    pp, pm = ProjPoint.of(-24, -75, 80), ProjPoint.of(24, -75, 80)
    ok = _tangent_at_all(c10, (lp, pp), (lm, pm))
    cand33 = ProjPoint.of(-33 * 8, -25 * 33, 880)
    cand27 = ProjPoint.of(-27 * 8, -25 * 27, 880)
    same33 = cand33 == pp
    off27 = c10.evaluate(cand27.coords) != 0
    record(7, "tangency points on the sqrt(10)-lines are (-+24sqrt(10):-75:80)",
           ok and same33 and off27,
           "candidate with factor 33 is the tangency point itself; "
           "the factor-27 candidate does not even lie on the cubic"
           if ok and same33 and off27 else "tangency point analysis fails")

    # (8) parameter constraint factors as (A-1)^2 (A-4)
    ok = unipoly([-1, 1]) * unipoly([-1, 1]) * unipoly([-4, 1]) == unipoly([-4, 9, -6, 1])
    record(8, "parameter constraint A^3 - 6A^2 + 9A - 4 = (A-1)^2 (A-4)", ok,
           "division exact with quotient A - 4" if ok else "factorization fails")

    # (9) flexes: (1:0:0) and the two points with x/y = +-sqrt(2/3) * 16/13,
    # in coordinates x = sqrt(6) X, where (x/y)^2 = 6 (X/y)^2
    c6 = _root_x(c, 6)
    h = hessian(c6)
    fplus, fminus = ProjPoint.of(16, 39, -48), ProjPoint.of(-16, 39, -48)
    flexes = all(not c6.evaluate(f.coords) and not h.evaluate(f.coords)
                 and any(gradient(c6, f))
                 for f in (ProjPoint.of(1, 0, 0), fplus, fminus))
    ratios = [f.coords[0] / f.coords[1] for f in (fplus, fminus)]    # X/y
    ratio_ok = (all(6 * r * r == Fraction(2, 3) * Fraction(16, 13) ** 2 for r in ratios)
                and ratios[0] > 0 > ratios[1])
    record(9, "flexes at (1:0:0) and x/y = +-sqrt(2/3) * 16/13", flexes and ratio_ok,
           "curve and Hessian vanish at all three smooth points"
           if flexes and ratio_ok else "flex check fails")

    # (10) irreducibility witness: z = 0 is not a component
    restricted = Poly(3, {e: coeff for e, coeff in c.terms.items() if e[2] == 0})
    ok = not restricted.is_zero()
    record(10, "z = 0 does not divide the cubic (so the cubic is irreducible)", ok,
           f"restriction to z=0 is {restricted}" if ok else "cubic vanishes on z=0")

    return ConfigReport(tuple(checks))
