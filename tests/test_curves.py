import random
from fractions import Fraction

import pytest

from braidpi import curves
from braidpi.curves import (Poly, ProjPoint, _check_form, _root_x, conic, cubic_discriminant,
                            family_cubic, gradient, hessian, is_tangent_at, line, nodal_cubic,
                            poly3, sylvester_resultant, unipoly, verify_persson_configuration)


def test_poly_evaluate_and_partial():
    x2 = poly3({(2, 0, 0): 1})
    assert x2.partial(0) == poly3({(1, 0, 0): 2})
    assert conic().evaluate(ProjPoint.of(0, 1, 0).coords) == 0
    c = nodal_cubic()
    node = ProjPoint.of(0, 9, -16)
    assert c.evaluate(node.coords) == 0
    assert gradient(c, node) == (0, 0, 0)


def test_poly_mixed_degrees():
    f = poly3({(2, 0, 0): 1, (0, 0, 0): 3, (1, 0, 0): 0})
    assert set(f.terms) == {(2, 0, 0), (0, 0, 0)}
    assert f.degree == 2 and not f.is_homogeneous()
    assert (f - f).is_zero() and (f - f).degree == 0 and (f - f).is_homogeneous()
    assert conic().is_homogeneous() and not (conic() * f).is_homogeneous()
    assert (conic() * f).degree == 4
    with pytest.raises(ValueError):
        Poly(3, {(1, 0): 1})
    with pytest.raises(ValueError):
        Poly(3, {(1, -1, 0): 1})


def test_geometry_rejects_non_forms():
    base = ProjPoint.of(0, 1, 0)
    # on the line z = 0 and on the curve, but not a form
    curve = nodal_cubic() + poly3({(1, 0, 0): 1})
    assert curve.evaluate(base.coords) == 0
    with pytest.raises(ValueError):
        gradient(curve, base)
    with pytest.raises(ValueError):
        hessian(curve)
    with pytest.raises(ValueError):
        is_tangent_at(curve, line(0, 0, 1), base)
    affine = line(0, 1, 0) - poly3({(0, 0, 0): 1})      # y - 1, vanishing at base
    assert affine.degree == 1 and affine.evaluate(base.coords) == 0
    with pytest.raises(ValueError):
        is_tangent_at(conic(), affine, base)


def test_euler_relation():
    variables = [poly3({(1, 0, 0): 1}), poly3({(0, 1, 0): 1}), poly3({(0, 0, 1): 1})]
    for f in (conic(), nodal_cubic(), family_cubic(7)):
        lhs = Poly(3, {})
        for v in range(3):
            lhs = lhs + variables[v] * f.partial(v)
        assert lhs == f * f.degree


def test_cubic_discriminant_examples():
    # depressed cubic x^3 + p x + q: discriminant -4p^3 - 27q^2
    p, q = Fraction(3), Fraction(-2)
    assert cubic_discriminant(1, 0, p, q) == -4 * p * p * p - 27 * q * q
    assert cubic_discriminant(1, 0, 0, 0) == 0
    assert cubic_discriminant(1, -3, 3, -1) == 0   # (x-1)^3


def _divide(f, g):
    """Quotient and remainder of univariate polynomials."""
    dg = max(e[0] for e in g.terms)
    q, r = Poly(1, {}), f
    while not r.is_zero() and r.degree >= dg:
        c = Poly(1, {(r.degree - dg,): r.terms[(r.degree,)] / g.terms[(dg,)]})
        q, r = q + c, r - c * g
    return q, r


def _unigcd(f, g):
    while not g.is_zero():
        _, r = _divide(f, g)
        f, g = g, r
    return f


def test_discriminant_iff_repeated_root():
    rng = random.Random(52)
    for _ in range(60):
        if rng.random() < 0.5:
            coeffs = [rng.randint(-6, 6) for _ in range(4)]
            coeffs[3] = rng.randint(1, 6)
            f = unipoly(coeffs)
        else:
            # forced repeated root: (x - r)^2 (x - s)
            r, s = rng.randint(-4, 4), rng.randint(-4, 4)
            f = (unipoly([-r, 1]) * unipoly([-r, 1])) * unipoly([-s, 1])
        cs = [f.terms.get((i,), 0) for i in range(4)]
        disc = cubic_discriminant(cs[3], cs[2], cs[1], cs[0])
        fp = f.partial(0)
        gcd = _unigcd(f, fp)
        repeated = gcd.degree >= 1
        assert (disc == 0) == repeated


def test_family_cubic():
    assert family_cubic(4) == nodal_cubic()
    c1 = family_cubic(1)
    p = ProjPoint.of(0, 0, 1)
    assert c1.evaluate(p.coords) == 0
    assert gradient(c1, p) == (0, 0, 0)
    for lam in (2, 3, 5):
        c = family_cubic(lam)
        tangency = ProjPoint.of(1 - lam, 1 - lam, lam)
        assert is_tangent_at(c, line(1, -1, 0), tangency)


def test_tangency_examples():
    q = conic()
    assert is_tangent_at(q, line(1, -1, 0), ProjPoint.of(1, 1, -1))
    assert is_tangent_at(q, line(1, 1, 0), ProjPoint.of(1, -1, 1))
    assert is_tangent_at(q, line(0, 0, 1), ProjPoint.of(0, 1, 0))
    c = nodal_cubic()
    assert is_tangent_at(c, line(1, -1, 0), ProjPoint.of(-3, -3, 4))
    assert is_tangent_at(c, line(1, 1, 0), ProjPoint.of(3, -3, 4))
    # x = sqrt(128/125) y at (-24 sqrt(10) : -75 : 80), in coordinates x = sqrt(10) X
    assert is_tangent_at(_root_x(c, 10), line(25, -8, 0), ProjPoint.of(-24, -75, 80))
    with pytest.raises(ValueError):
        is_tangent_at(q, line(1, 0, 0), ProjPoint.of(1, 1, -1))  # point not on line


def test_not_tangent_at_transverse_point():
    # x - z = 0 meets the conic at (1 : -1 : 1) transversally
    q = conic()
    l = line(1, 0, -1)
    pt = ProjPoint.of(1, -1, 1)
    assert q.evaluate(pt.coords) == 0 and l.evaluate(pt.coords) == 0
    assert not is_tangent_at(q, l, pt)


def _tangent_by_restriction(curve, l, p):
    """The earlier tangency routine, kept as the reference: restrict the
    curve to a parametrization of the line; tangency means the binary form
    and both its partials vanish at p's parameter."""
    _check_form(curve)
    if l.degree != 1 or not l.is_homogeneous():
        raise ValueError("second argument must be a line")
    if l.evaluate(p.coords):
        raise ValueError(f"point {p} not on the line")
    if curve.evaluate(p.coords):
        raise ValueError(f"point {p} not on the curve")
    a, b, c = (l.terms.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    if a:
        p1, p2 = ProjPoint.of(-b / a, 1, 0), ProjPoint.of(-c / a, 0, 1)
    elif b:
        p1, p2 = ProjPoint.of(1, -a / b, 0), ProjPoint.of(0, -c / b, 1)
    else:
        p1, p2 = ProjPoint.of(1, 0, 0), ProjPoint.of(0, 1, 0)
    param = None
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = p1.coords[i] * p2.coords[j] - p1.coords[j] * p2.coords[i]
        if det:
            s = (p.coords[i] * p2.coords[j] - p.coords[j] * p2.coords[i]) / det
            t = (p1.coords[i] * p.coords[j] - p1.coords[j] * p.coords[i]) / det
            if ProjPoint(tuple(s * p1.coords[k] + t * p2.coords[k] for k in range(3))) == p:
                param = (s, t)
            break
    if param is None:
        raise ValueError(f"point {p} not on the line")
    f = curve.substitute_linear([Poly(2, {(1, 0): p1.coords[k], (0, 1): p2.coords[k]})
                                 for k in range(3)])
    return not any(g.evaluate(param) for g in (f, f.partial(0), f.partial(1)))


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_tangency_matches_restriction_on_random_lines():
    # the configuration's points with curves through them (the irrational ones
    # in coordinates x = sqrt(d) X), lines through each point (random, the
    # tangent, a multiple of x = 0) and off it
    rng = random.Random(54)
    q, c = conic(), nodal_cubic()
    c10, c6 = _root_x(c, 10), _root_x(c, 6)
    cases = [(q, ProjPoint.of(1, 1, -1)), (q, ProjPoint.of(1, -1, 1)),
             (q, ProjPoint.of(0, 1, 0)), (c, ProjPoint.of(0, 1, 0)),
             (c, ProjPoint.of(-3, -3, 4)), (c, ProjPoint.of(3, -3, 4)),
             (c10, ProjPoint.of(-24, -75, 80)), (c10, ProjPoint.of(24, -75, 80)),
             (c, ProjPoint.of(0, 9, -16)), (c, ProjPoint.of(1, 0, 0)),
             (c6, ProjPoint.of(16, 39, -48)), (c6, ProjPoint.of(-16, 39, -48)),
             (family_cubic(1), ProjPoint.of(0, 0, 1)), (family_cubic(3), ProjPoint.of(-2, -2, 3)),
             (hessian(c), ProjPoint.of(1, 0, 0))]
    verdicts = []
    for curve, p in cases:
        lines = [line(*gradient(curve, p))] if any(gradient(curve, p)) else []
        for _ in range(24):
            u, v = p.coords, tuple(rng.randint(-5, 5) for _ in range(3))
            through = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                       u[0] * v[1] - u[1] * v[0])
            if any(through):
                lines.append(line(*through))
            lines.append(line(*v) if any(v) else line(1, 0, 0))
        lines += [line(2, 0, 0), lines[-1] * lines[-1]]
        for shape, l in [(curve, l) for l in lines] + [(curve + c, lines[0])]:
            expected = _outcome(_tangent_by_restriction, shape, l, p)
            assert _outcome(is_tangent_at, shape, l, p) == expected, (str(l), str(p))
            verdicts.append(expected)
    assert verdicts.count(True) >= 15 and verdicts.count(False) >= 200
    assert sum(isinstance(v, tuple) for v in verdicts) >= 200


def test_sylvester_resultant_examples():
    x = poly3({(1, 0, 0): 1})
    one = poly3({(0, 0, 0): 1})
    # Res_x(x - 1, x + 1) = 2 up to the documented sign convention
    f = x - one
    g = x + one
    res = sylvester_resultant(f, g, 0)
    assert res == poly3({(0, 0, 0): 2})
    res_cq = sylvester_resultant(nodal_cubic(), conic(), 2)
    assert set(res_cq.terms) == {(6, 0, 0)}


def test_resultant_symmetry_and_multiplicativity():
    rng = random.Random(53)
    z = 2

    def rand_poly(deg):
        # homogeneous binary form in (x, z) with nonzero leading z coefficient
        terms = {(deg - k, 0, k): rng.randint(-4, 4) for k in range(deg)}
        terms[(0, 0, deg)] = rng.randint(1, 4)
        return Poly(3, terms)

    for _ in range(25):
        f = rand_poly(rng.randrange(1, 3))
        g = rand_poly(rng.randrange(1, 3))
        h = rand_poly(rng.randrange(1, 3))
        df = max(e[z] for e in f.terms)
        dg = max(e[z] for e in g.terms)
        rfg = sylvester_resultant(f, g, z)
        rgf = sylvester_resultant(g, f, z)
        sign = -1 if (df * dg) % 2 else 1
        assert rfg == sign * rgf
        gh = g * h
        lhs = sylvester_resultant(f, gh, z)
        rhs = sylvester_resultant(f, g, z) * sylvester_resultant(f, h, z)
        assert lhs == rhs


def test_hessian():
    smooth = poly3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    h = hessian(smooth)
    assert h.degree == 0 and not h.is_zero()
    c = nodal_cubic()
    hc = hessian(c)
    flex = ProjPoint.of(1, 0, 0)
    assert c.evaluate(flex.coords) == 0 and hc.evaluate(flex.coords) == 0
    # (16 sqrt(6) : 39 : -48) in coordinates x = sqrt(6) X, where the Hessian
    # of the rescaled cubic is 6 times the rescaled Hessian
    c6 = _root_x(c, 6)
    assert hessian(c6) == _root_x(hc, 6) * 6
    irrational_flex = ProjPoint.of(16, 39, -48)
    assert c6.evaluate(irrational_flex.coords) == 0
    assert hessian(c6).evaluate(irrational_flex.coords) == 0


def test_parameter_constraint_factors():
    # item 8 checks the product; division by (A-1)^2 agrees
    constraint = unipoly([-4, 9, -6, 1])
    quot, rem = _divide(constraint, unipoly([1, -2, 1]))
    assert rem.is_zero() and quot == unipoly([-4, 1])
    assert unipoly([-1, 1]) * unipoly([-1, 1]) * unipoly([-4, 1]) == constraint


def test_proj_point_equality():
    # item 7's factor-33 candidate, in coordinates x = sqrt(10) X
    assert ProjPoint.of(-33 * 8, -25 * 33, 880) == ProjPoint.of(-24, -75, 80)
    assert ProjPoint.of(1, 2, 3) != ProjPoint.of(1, 2, 4)
    with pytest.raises(ValueError):
        ProjPoint.of(0, 0, 0)


def test_verify_persson_configuration():
    report = verify_persson_configuration()
    assert len(report.checks) == 10
    assert report.all_passed, str(report)
    assert [c.item for c in report.checks] == list(range(1, 11))


def test_root_x():
    # f(sqrt(d) X, y, z) twice over is f(d X, y, z); odd powers of x have no such form
    with pytest.raises(ValueError, match="odd power of x"):
        _root_x(conic() + poly3({(1, 1, 0): 1}), 2)
    for f in (conic(), nodal_cubic(), family_cubic(Fraction(-2, 3)), family_cubic(5)):
        for d in (2, 6, 10):
            scaled = f.substitute_linear([poly3({(1, 0, 0): d}), poly3({(0, 1, 0): 1}),
                                          poly3({(0, 0, 1): 1})])
            assert _root_x(_root_x(f, d), d) == scaled


def test_rescaled_items_need_the_right_radicand(monkeypatch):
    # in coordinates x = sqrt(d + 1) X, items 7 and 9 no longer hold; the rest do
    root_x = curves._root_x
    monkeypatch.setattr(curves, "_root_x", lambda f, d: root_x(f, d + 1))
    report = verify_persson_configuration()
    assert [c.item for c in report.checks] == list(range(1, 11))
    assert [c.item for c in report.checks if not c.passed] == [7, 9]
