"""Family generators: published values, tangency identities, cross-checks."""

import json
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from k2forge import families as fam
from k2forge.bipoly import BiPoly
from k2forge.cli import main
from k2forge.curves import PlaneCurve, smoothness_check
from k2forge.errors import (NonRationalSupportError, PreconditionError,
                            SingularModelError, VerificationError)
from k2forge.linalg import vandermonde_solve
from k2forge.records import record_jsonable
from k2forge.unipoly import UniPoly

from test_acceptance import FIGURES, HYP_ODD_DEEP, SMOKE_TUPLES

rng = random.Random(31337)


def rand_nonzero(bound=6):
    while True:
        v = F(rng.randint(-bound, bound), rng.randint(1, 4))
        if v != 0:
            return v


# ---------------------------------------------------------------------------
# hyperelliptic families
# ---------------------------------------------------------------------------

def closed_form_g2(a1, a2, a3):
    g = (a1 + a2) * (a1 + a3) * (a2 + a3)
    b0 = -F(2) / g * (a1 * a2 + a1 * a3 + a2 * a3) * a3**2 * a2**2 * a1**2
    b1 = F(2) / g * (a1**3 * a2**3 + a1**3 * a2**2 * a3 + a1**3 * a2 * a3**2
                     + a1**3 * a3**3 + a1**2 * a2**3 * a3 + a1**2 * a2**2 * a3**2
                     + a1**2 * a2 * a3**3 + a1 * a2**3 * a3**2 + a1 * a2**2 * a3**3
                     + a2**3 * a3**3)
    b2 = -F(2) / g * (a1**3 * a2 + a1**3 * a3 + a1**2 * a2**2 + 2 * a1**2 * a2 * a3
                      + a1**2 * a3**2 + a1 * a2**3 + 2 * a1 * a2**2 * a3
                      + 2 * a1 * a2 * a3**2 + a1 * a3**3 + a2**3 * a3
                      + a2**2 * a3**2 + a2 * a3**3)
    return [b0, b1, b2]


def test_hyp_odd_reference_instance():
    rec = fam.gen_hyp_odd(2, [1, F(1, 2), F(1, 4)])
    assert rec.model["f1"] == ["-7/360", "31/72", "-217/90"]
    assert len(rec.elements) == 3 and rec.all_pass
    assert all(f["satisfied"] for f in rec.integrality_flags)


def test_hyp_odd_matches_closed_form_on_random_tuples():
    done = 0
    while done < 50:
        a = [rand_nonzero() for _ in range(3)]
        if len({x * x for x in a}) < 3 or any((x + y) == 0 for x in a for y in a):
            continue
        try:
            coeffs = vandermonde_solve([x * x for x in a], [-2 * x**5 for x in a])
        except PreconditionError:
            continue
        assert coeffs == closed_form_g2(*a), a
        done += 1


def test_hyp_odd_elliptic_two_weierstrass_points():
    rec = fam.gen_hyp_odd(1, [1, 2])
    assert rec.all_pass and len(rec.elements) == 2
    # Weierstrass tangency conditions: beta^2 = alpha^3, f1(alpha) = -2 beta
    f1 = UniPoly([F(c) for c in [F(x) for x in map(F, rec.model["f1"])]])
    for x in (F(1), F(2)):
        alpha, beta = x * x, x**3
        assert beta**2 == alpha**3
        assert f1(alpha) == -2 * beta


def test_hyp_odd_square_collision_rejected():
    with pytest.raises(PreconditionError, match="singular Vandermonde"):
        fam.gen_hyp_odd(2, [1, -1, F(1, 2)])


def test_hyp_even_mixed_signs_reference():
    rec = fam.gen_hyp_even(2, [1, 2, 3], [1, -1, -1])
    g = F(1) - 2 - 3 + 6
    assert rec.model["f1"] == [str(-24 // int(g) if g.denominator == 1 else 0),
                               str(F(4 * 5) / g), str(F(-4) / g), "2"]
    assert rec.all_pass and len(rec.elements) == 3


def test_hyp_even_postcondition_and_split_sides():
    rec = fam.gen_hyp_even(1, [1, 2], [1, 1])
    assert rec.all_pass
    split = rec.extras["t_split"]
    second = UniPoly([F(c) for c in map(F, split["second_factor"])])
    for x in (F(1), F(2)):
        assert second(x) == 0  # eps=+1 nodes are roots of the second factor


def test_hyp_even_all_minus_rejected():
    with pytest.raises(SingularModelError,
                       match="^discriminant vanishes: two-torsion polynomial drops degree$"):
        fam.gen_hyp_even(2, [1, 2, 3], [-1, -1, -1])


def test_hyp_partial_two_constraints_oracle():
    # rank check + tangency: m=2 constraints on a genus-3 odd model
    rec = fam.gen_hyp_partial(3, 7, [(1, -1), (F(1, 2), -1)], [0, 0])
    assert rec.all_pass and len(rec.elements) == 2
    f1 = UniPoly([F(c) for c in map(F, rec.model["f1"])])
    # the 2x4 system has full row rank 2 and the tangency conditions hold
    assert f1(1) == 2 and f1(F(1, 4)) == 2 * F(1, 2)**7
    for alpha, beta in [(F(1), F(-1)), (F(1, 4), -F(1, 2)**7)]:
        section = rec.curve.affine.eval_x(alpha)
        assert section == UniPoly([-beta, 1])**2 * section.lc


def test_hyp_partial_even_all_minus_needs_free_param():
    rec = fam.gen_hyp_partial(2, 6, [(1, -1), (2, -1)], [1])
    assert rec.all_pass and len(rec.elements) == 2
    with pytest.raises(SingularModelError):
        fam.gen_hyp_partial(2, 6, [(1, -1), (2, -1)], [0])  # degenerates


def test_hyp_partial_no_constraints():
    rec = fam.gen_hyp_partial(1, 3, [], [F(1), F(2)])
    assert rec.elements == []


def test_hyp_partial_full_rank_matches_direct_generator():
    """With g+1 constraints and no free value, hyp-partial writes the record
    of hyp-odd (odd d) or hyp-even (even d), apart from its family, params
    and notes."""
    def body(rec):
        return {k: v for k, v in record_jsonable(rec).items()
                if k not in ("family_id", "params", "notes")}

    assert (body(fam.gen_hyp_partial(1, 3, [(1, 1), (2, 1)], []))
            == body(fam.gen_hyp_odd(1, [1, 2])))
    r = random.Random(1905)
    done = {True: 0, False: 0}
    while min(done.values()) < 3:
        odd, g = r.random() < 0.5, r.choice([1, 2])
        a = [F(r.randint(-6, 6), r.randint(1, 3)) for _ in range(g + 1)]
        eps = [1 if odd else r.choice([1, -1]) for _ in a]
        try:
            direct = fam.gen_hyp_odd(g, a) if odd else fam.gen_hyp_even(g, a, eps)
        except PreconditionError:
            continue
        partial = fam.gen_hyp_partial(g, 2 * g + (1 if odd else 2), list(zip(a, eps)), [])
        assert body(partial) == body(direct), (g, a, eps)
        done[odd] += 1


@pytest.mark.parametrize("family", ["hyp-odd", "hyp-even", "hyp-partial"])
def test_hyp_interpolation_postcondition_covers_every_family(monkeypatch, capsys, tmp_path,
                                                             family):
    """A wrong interpolant puts the marks off the curve, whichever
    hyperelliptic family asked for it: the first element's divisor refuses,
    and gen exits 3 with one line naming it and the mark P1 that left the
    curve.  (For hyp-even at a = 1, 2 the shifted interpolant gives a
    singular model, which the discriminant gate refuses first, with exit 2;
    a = 1, 3 gives a smooth one.)"""
    def off_by_one(nodes, values):
        return vandermonde_solve(nodes, [v + 1 for v in values])

    flags = {"hyp-odd": ["--genus", "2", "--a", "1,1/2,1/4"],
             "hyp-even": ["--genus", "1", "--a", "1,3", "--eps", "1,1"],
             "hyp-partial": ["--genus", "2", "--d", "5", "--constraints", "1:1",
                             "--free", "0,0"]}[family]
    good = tmp_path / "good.json"
    assert main(["gen", family, *flags, "--out", str(good)]) == 0
    p1 = json.loads(good.read_text())["points"]["P1"]
    monkeypatch.setattr(fam, "vandermonde_solve", off_by_one)
    out = tmp_path / "r.json"
    code = main(["gen", family, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == (f"verification failure: element {{inf,O,P1}}: "
                   f"point ({p1['x']}, {p1['y']}) does not lie on the curve\n"), err
    assert not out.exists()


def test_integrality_flag_negative_case():
    rec = fam.gen_hyp_odd(1, [1, F(3, 2)])
    sats = [f["satisfied"] for f in rec.integrality_flags]
    assert sats == [True, False]  # 1/(3/2) is not an integer


_RAT = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 6))


@st.composite
def _hyp_args(draw):
    """(family, generator arguments) for a small hyperelliptic member."""
    family = draw(st.sampled_from(["hyp-odd", "hyp-even", "hyp-partial"]))
    g = draw(st.integers(1, 2))
    if family == "hyp-partial":
        d = draw(st.sampled_from([2 * g + 1, 2 * g + 2]))
        m = draw(st.integers(0, g + 1))
        cons = draw(st.lists(st.tuples(_RAT, st.sampled_from([1, -1])), min_size=m, max_size=m))
        return family, (g, d, cons, draw(st.lists(_RAT, min_size=g + 1 - m, max_size=g + 1 - m)))
    a = draw(st.lists(_RAT, min_size=g + 1, max_size=g + 1))
    if family == "hyp-odd":
        return family, (g, a)
    return family, (g, a, draw(st.lists(st.sampled_from([1, -1]), min_size=g + 1,
                                        max_size=g + 1)))


@settings(max_examples=30, deadline=None)
@given(_hyp_args())
def test_integral_model_is_the_stored_rescaling(args):
    """extras.integral_model holds integers v and F1 = v^d f1(x/v^2): the
    map (x, y) -> (x/v^2, y/v^d) carries the stored curve to
    y^2 + F1*y + x^d, up to the factor v^(-2d)."""
    family, params = args
    try:
        rec = fam.GENERATORS[family](*params)
    except PreconditionError:  # singular members and bad parameter sets
        assume(False)
    stored = rec.extras["integral_model"]
    v, f1_int = F(stored["v"]), [F(c) for c in stored["f1"]]
    assert v.denominator == 1 and v >= 1
    assert all(c.denominator == 1 for c in f1_int)
    d, x, y = rec.model["d"], BiPoly.x(), BiPoly.y()
    mapped = rec.curve.affine.substitute(x * (1 / v**2), y * (1 / v**d)) * v**(2 * d)
    assert mapped == y**2 + BiPoly.from_unipoly(UniPoly(f1_int)) * y + x**d


def test_hyp_tangency_identity_random_100():
    done = 0
    while done < 100:
        odd = rng.random() < 0.5
        g = rng.choice([1, 2])
        a = []
        while len(a) < g + 1:
            v = rand_nonzero(5)
            if odd and v * v in [x * x for x in a]:
                continue
            if not odd and v in a:
                continue
            a.append(v)
        try:
            if odd:
                d = 2 * g + 1
                f1 = UniPoly(vandermonde_solve([x * x for x in a],
                                               [-2 * x**d for x in a]))
                marked = [(x * x, x**d) for x in a]
            else:
                d = 2 * g + 2
                eps = [rng.choice([1, -1]) for _ in range(g + 1)]
                if all(e == -1 for e in eps):
                    eps[0] = 1
                w = [-2 * x**(g + 1) - 2 * e * x**(g + 1) for x, e in zip(a, eps)]
                f1 = UniPoly(vandermonde_solve(a, w)) + UniPoly.x(g + 1) * 2
                marked = [(x, e * x**(g + 1)) for x, e in zip(a, eps)]
            curve, _, _ = fam._y2_model(f1, d)
        except (PreconditionError, SingularModelError):
            continue
        for alpha, beta in marked:
            section = curve.affine.eval_x(alpha)
            assert section == UniPoly([-beta, 1])**2, (a, alpha)
        done += 1


# ---------------------------------------------------------------------------
# quartic line families
# ---------------------------------------------------------------------------

def test_quartic_lines_reference_instance():
    rec = fam.gen_quartic_lines(F(1, 2), -1, 0)
    assert rec.all_pass and len(rec.elements) == 8
    names = {e.name for e in rec.elements}
    assert {"{inf,O,P}", "{inf,O,Q}", "{inf,P,Q}", "{inf,O,P'}", "{inf,O,Q'}",
            "{inf,P',Q'}", "{inf,P,Q'}", "{inf,P',Q}"} == names
    flags = {f["element"]: f["satisfied"] for f in rec.integrality_flags}
    assert flags == {"{inf,O,P}": True, "{inf,O,Q}": True, "2*{inf,P,Q}": True}


def test_quartic_lines_a_equals_b_rejected():
    with pytest.raises(PreconditionError, match="a != b"):
        fam.gen_quartic_lines(1, 1, 0)


def test_quartic_lines_generic_c():
    rec = fam.gen_quartic_lines(1, 2, 1)
    assert rec.all_pass and len(rec.elements) == 3
    assert F(rec.extras["disc_printed"]) != 0


def test_quartic_tangency_identities_random():
    done = 0
    while done < 25:
        a, b, c = rand_nonzero(4), rand_nonzero(4), F(rng.randint(-4, 4))
        if a == b:
            continue
        f1, f2 = fam._thm53_polys(a, b, c)
        # the cubic-contact identity holds for every parameter value
        curve_poly = (BiPoly.y(3) + BiPoly.from_unipoly(f2) * BiPoly.y(2)
                      + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4))
        section = curve_poly.eval_x(a**3)
        assert section == UniPoly([a**4, 1])**3, (a, b, c)
        done += 1


def test_quartic_ct_reference_values():
    rec = fam.gen_quartic_ct(0)
    assert rec.all_pass
    assert F(rec.extras["disc_printed"]) == fam.disc_ct_printed(0)
    assert F(rec.extras["i3"]) == F(-15, 128)
    assert rec.points["P"].x == F(-1, 8) and rec.points["P"].y == F(-1, 16)
    assert rec.points["Q"].x == F(-1, 4) and rec.points["Q"].y == F(-1, 4)


def test_quartic_ct_is_a_parameter_map_onto_the_line_construction(monkeypatch):
    """quartic-ct runs the line construction at (-1/2, 1, t) under its own
    family id: no quartic-lines record is built and then patched."""
    lines, flags = [], []
    real_flags = fam.integrality_flags
    monkeypatch.setattr(fam, "gen_quartic_lines", lambda *a: lines.append(a))
    monkeypatch.setattr(fam, "integrality_flags", lambda rec: flags.append(rec.family_id)
                        or real_flags(rec))
    rec = fam.gen_quartic_ct(2)
    assert lines == [] and flags == ["quartic-ct"]
    assert rec.params == {"t": 2} and list(rec.extras) == ["disc_printed", "i3"]


@pytest.mark.parametrize("t", [1, -3, F(-5, 2), F(-7, 2)])
def test_quartic_ct_exclusions(t):
    with pytest.raises(SingularModelError, match="excluded"):
        fam.gen_quartic_ct(t)


def test_quartic_ct_i3_separates_integers():
    vals = {fam.i3_ct_printed(t) for t in range(-10, 11)}
    assert len(vals) == 21


def test_ct_matches_reflected_plus_family():
    # C_t equals the (a,b) = (1/2, -1) family at -t after x -> -x
    for t in (F(0), F(2), F(-1), F(5, 3)):
        f1, f2 = fam._thm53_polys(F(1, 2), F(-1), -t)
        cpoly = (BiPoly.y(3) + BiPoly.from_unipoly(f2) * BiPoly.y(2)
                 + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4))
        reflected = cpoly.substitute(-BiPoly.x(), BiPoly.y())
        assert reflected == fam.ct_equation(t)


def test_ct_is_the_line_family_at_minus_half_one_t_for_every_t(monkeypatch):
    """ct_equation(t) and the line family at (a, b, c) = (-1/2, 1, t) hand
    _quartic_poly the same two coefficient lists, as polynomials in a
    symbolic t, so C_t is the specialization at every t."""
    t = sympy.Symbol("t")
    monkeypatch.setattr(fam, "rat", lambda v: v)
    monkeypatch.setattr(fam, "UniPoly", lambda coeffs: [sympy.sympify(c) for c in coeffs])
    monkeypatch.setattr(fam, "_quartic_poly", lambda f1, f2: (f1, f2))
    printed = fam.ct_equation(t)
    specialized = fam._thm53_polys(sympy.Rational(-1, 2), sympy.Integer(1), t)
    assert [[sympy.expand(c) for c in f] for f in printed] \
        == [[sympy.expand(c) for c in f] for f in specialized]
    assert printed[1][1] == t  # the lists do depend on t


def test_printed_ct_discriminant_vanishes_only_at_the_excluded_t(monkeypatch):
    """disc_ct_printed is (t-1)^2 (t+3)^6 (2t+5) (2t+7) / 2^52 times the
    cubic 32t^3 + 96t^2 - 12t + 5, which has no rational root, so it is
    nonzero at every t that gen_quartic_ct accepts."""
    cubic = UniPoly([5, -12, 96, 32])
    assert cubic.rational_roots() == []
    t = sympy.Symbol("t")
    monkeypatch.setattr(fam, "rat", lambda v: v)
    assert sympy.expand(fam.ct_cubic_printed(t)
                        - sum(c * t**i for i, c in enumerate(cubic.coeffs))) == 0
    disc = sympy.Poly(fam.disc_ct_printed(t), t)
    assert disc.ground_roots() == {1: 2, -3: 6, sympy.Rational(-5, 2): 1, sympy.Rational(-7, 2): 1}
    monkeypatch.undo()
    for bad in ("1", "-3", "-5/2", "-7/2"):
        with pytest.raises(SingularModelError, match="is excluded"):
            fam.gen_quartic_ct(bad)


# ---------------------------------------------------------------------------
# conic families
# ---------------------------------------------------------------------------

def test_conic_reference_instance():
    rec = fam.gen_quartic_conic(1, 2, 1, 1)
    assert rec.all_pass and len(rec.elements) == 1
    assert rec.points["R"].x == 0 and rec.points["R"].y == -2


@pytest.mark.parametrize("d", [(1, 0, 1, 1), (1, 1, 0, 1)])
def test_conic_degenerate_d_rejected(d):
    with pytest.raises(SingularModelError):
        fam.gen_quartic_conic(*d)


def test_conic_1tangent_reference_and_factors():
    rec = fam.gen_quartic_conic_1tangent(1, 0, 0)
    assert rec.all_pass and len(rec.elements) == 3
    with pytest.raises(SingularModelError, match=r"\(3a-2d1\)"):
        fam.gen_quartic_conic_1tangent(1, F(3, 2), 0)
    with pytest.raises(SingularModelError, match="a\\^42"):
        fam.gen_quartic_conic_1tangent(0, 1, 1)


def test_conic_2tangent_reference_and_factors():
    rec = fam.gen_quartic_conic_2tangent(1, 2)
    assert rec.all_pass and len(rec.elements) == 5
    with pytest.raises(SingularModelError, match=r"\(a1-a2\)"):
        fam.gen_quartic_conic_2tangent(1, 1)
    with pytest.raises(SingularModelError, match=r"\(a2\+a1\)"):
        fam.gen_quartic_conic_2tangent(1, -1)


def test_conic_pq_reference_and_fig4():
    rec = fam.gen_quartic_conic_pq(F(1, 2), -1)
    assert rec.all_pass and len(rec.elements) == 6
    fig4 = (BiPoly.x(4)
            + (BiPoly.parse("2*x - 8*y - 1")**2 - BiPoly.parse("52*x^2")
               + BiPoly.parse("8*x")) * BiPoly.y() * F(1, 64))
    assert rec.curve.affine == fig4
    with pytest.raises(SingularModelError, match=r"2b\^3\+3a"):
        fam.gen_quartic_conic_pq(-F(2, 3), 1)  # 2b^3 + 3a = 0


def test_conic_contact_identity_random():
    done = 0
    while done < 25:
        a1, a2 = rand_nonzero(4), rand_nonzero(4)
        if a1 in (a2, -a2):
            continue
        d = a1**2 + a1 * a2 + a2**2
        if d == 0:
            continue
        d1 = F(3, 2) / d * (a1**3 + a1**2 * a2 + a1 * a2**2 + a2**3)
        d2 = -F(3, 2) / d * a1**3 * a2**3
        d3 = -F(3, 4) / d * a2**3 * a1**3 * (a1 + a2)
        d4 = F(3, 4) / d * (a1**4 + a1**3 * a2 + a1**2 * a2**2 + a1 * a2**3 + a2**4)
        from k2forge.curves import Conic
        poly = Conic.make(d1, d2, d3, d4).poly() * BiPoly.y() + BiPoly.x(4)
        for ai in (a1, a2):
            section = poly.eval_x(ai**3)
            assert section == UniPoly([ai**4, 1])**3
        done += 1


# ---------------------------------------------------------------------------
# printed discriminants vs the smoothness decision
# ---------------------------------------------------------------------------

def test_disc_cross_checks_zero_iff_singular():
    samples = []
    # random smooth-ish tuples
    for _ in range(8):
        samples.append(("thm53", (rand_nonzero(3), rand_nonzero(3), F(rng.randint(-3, 3)))))
        samples.append(("ex63", (rand_nonzero(3), rand_nonzero(3))))
        samples.append(("ex64", (rand_nonzero(2), rand_nonzero(2))))
    # designed singular tuples hitting printed factors
    a0, b0 = F(2), F(1)
    samples.append(("thm53", (a0, b0, 2 * a0 - 2 * b0**3)))      # (2a-2b^3-c) = 0
    samples.append(("thm53", (-1, 1, 0)))                        # a + b^3 = 0
    samples.append(("ex63", (F(3), F(3))))                       # a1 = a2
    samples.append(("ex64", (F(-2, 3) * 8, F(2))))               # 2b^3 + 3a = 0
    for kind, tup in samples:
        if kind == "thm53":
            a, b, c = tup
            if a == 0 or b == 0 or a == b:
                continue
            printed = fam.disc_thm53_printed(a, b, c)
            f1, f2 = fam._thm53_polys(a, b, c)
            curve = PlaneCurve(BiPoly.y(3) + BiPoly.from_unipoly(f2) * BiPoly.y(2)
                               + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4),
                               check_squarefree=False)
        elif kind == "ex63":
            a1, a2 = tup
            if a1 == 0 or a2 == 0 or a1**2 + a1 * a2 + a2**2 == 0:
                continue
            printed = fam.disc_ex63_printed(a1, a2)
            try:
                rec = fam.gen_quartic_conic_2tangent(a1, a2)
                assert printed != 0
                continue
            except SingularModelError:
                assert printed == 0 or True  # gate fired; check below via curve
            d = a1**2 + a1 * a2 + a2**2
            d1 = F(3, 2) / d * (a1**3 + a1**2 * a2 + a1 * a2**2 + a2**3)
            d2 = -F(3, 2) / d * a1**3 * a2**3
            d3 = -F(3, 4) / d * a2**3 * a1**3 * (a1 + a2)
            d4 = F(3, 4) / d * (a1**4 + a1**3 * a2 + a1**2 * a2**2
                                + a1 * a2**3 + a2**4)
            from k2forge.curves import Conic
            curve = PlaneCurve(Conic.make(d1, d2, d3, d4).poly() * BiPoly.y()
                               + BiPoly.x(4), check_squarefree=False)
        else:
            a, b = tup
            if a == 0 or b == 0 or b == -a:
                continue
            printed = fam.disc_ex64_printed(a, b)
            d1 = b**3 + F(3, 2) * a
            d2 = -a**3 * b**3
            d3 = 2 * a**3 * (2 * b**3 + 3 * a) * b**3
            d4 = -4 * b**6 - 6 * a * b**3 + F(3, 4) * a**2
            from k2forge.curves import Conic
            curve = PlaneCurve(Conic.make(d1, d2, d3, d4).poly() * BiPoly.y()
                               + BiPoly.x(4), check_squarefree=False)
        rep = smoothness_check(curve)
        assert (printed == 0) == (not rep.smooth), (kind, tup, printed, rep.smooth)


def test_ex64_printed_disc_misses_a_factor_on_the_diagonal():
    """Pin the published-formula defect: at (a, b) = (1, -1) the printed
    two-parameter discriminant expression is nonzero while the curve has
    the exact rational singular point (1, -1).  The cross-check suite
    therefore samples away from b = -a."""
    a, b = F(1), F(-1)
    printed = fam.disc_ex64_printed(a, b)
    assert printed != 0
    d1 = b**3 + F(3, 2) * a
    d2 = -a**3 * b**3
    d3 = 2 * a**3 * (2 * b**3 + 3 * a) * b**3
    d4 = -4 * b**6 - 6 * a * b**3 + F(3, 4) * a**2
    from k2forge.curves import Conic
    poly = Conic.make(d1, d2, d3, d4).poly() * BiPoly.y() + BiPoly.x(4)
    w = (F(1), F(-1))
    assert poly(*w) == 0
    assert poly.partial("x")(*w) == 0
    assert poly.partial("y")(*w) == 0
    # and the smoothness gate protects the generator on that locus
    with pytest.raises(SingularModelError):
        fam.gen_quartic_conic_pq(a, b)


# ---------------------------------------------------------------------------
# contact families
# ---------------------------------------------------------------------------

def test_nekovar_2tor_always_lacks_rational_support():
    for r in (F(3, 4), F(1, 5), F(2)):
        with pytest.raises(NonRationalSupportError, match="rational support required") as ei:
            fam.gen_nekovar_2tor(r)
        assert ei.value.details["h_pattern"] == [1, 2]


def test_nekovar_2tor_exclusion_set_is_zero():
    data = fam.nekovar_2tor_data(F(7, 3))
    disc_poly = UniPoly([0, 0, 0, -4, 13, -32])  # -r^3 (32 r^2 - 13 r + 4)
    assert data["disc_r"] == disc_poly(F(7, 3))
    assert [root for root, _ in disc_poly.rational_roots()] == [0]
    with pytest.raises(SingularModelError):
        fam.gen_nekovar_2tor(0)


def test_nekovar_2tor_partial_one_rational_root():
    # r = 4/9 and r = -4/3 each have exactly one rational two-torsion abscissa
    for r, x0 in ((F(4, 9), F(-19, 27)), (F(-4, 3), F(-17, 9))):
        data = fam.nekovar_2tor_data(r)
        roots = data["cubic"].rational_roots()
        assert [x for x, _ in roots] == [x0]
        with pytest.raises(NonRationalSupportError, match="1 rational root"):
            fam.gen_nekovar_2tor(r)


def test_nekovar_2tor_root_curve_parametrization():
    # x = 1/3 + s r with r = -3(3s+1)^2/(27s^3 - 36s + 16) is a root of the
    # two-torsion cubic; the residual quadratic X^2 + x X + (x^2 + a) has
    # discriminant -3x^2 - 4a = 9 (324s^3 + 405s^2 + 48) / ((3s-2)^4 (3s+4)^2),
    # so it splits over Q exactly when 324s^3 + 405s^2 + 48 is a square.
    # Times (27s^3 - 36s + 16)^3 both checks are polynomial identities of
    # degree <= 9 in s, so agreement at these 22 points proves them.
    for s in [F(n, 3) for n in range(-12, 13) if n not in (-4, -1, 2)]:
        r = -3 * (3 * s + 1)**2 / (27 * s**3 - 36 * s + 16)
        data = fam.nekovar_2tor_data(r)
        x = F(1, 3) + s * r
        assert data["cubic"](x) == 0, s
        disc = -3 * x**2 - 4 * data["a"]
        assert disc == 9 * (324 * s**3 + 405 * s**2 + 48) \
            / ((3 * s - 2)**4 * (3 * s + 4)**2), s


def test_nekovar_3tor_reference():
    rec = fam.gen_nekovar_3tor(2)
    assert rec.all_pass
    assert rec.elements[0].meta["h_pattern"] == [1, 2]
    assert rec.elements[0].meta["m"] == 3


def test_nekovar_3tor_exclusions_match_disc_roots():
    # rational roots of disc(f1^2 - 4x^3) as a polynomial in r are {0, -1, 1/8}
    bad = set()
    for r in [F(0), F(-1), F(1, 8)]:
        with pytest.raises(SingularModelError):
            fam.gen_nekovar_3tor(r)
        bad.add(r)
    # spot check: nearby values are fine
    for r in [F(1), F(-2), F(1, 4)]:
        assert fam.gen_nekovar_3tor(r).all_pass


def test_nekovar_g2_reference():
    rec = fam.gen_nekovar_genus2(F(1, 2))
    assert rec.all_pass
    assert sorted(rec.elements[0].meta["h_pattern"]) == [2, 3]
    assert sum(1 for name in rec.points if name.startswith("inf")) == 2


def test_nekovar_g2_exclusions():
    for r in (F(0), F(1, 3)):
        with pytest.raises(SingularModelError):
            fam.gen_nekovar_genus2(r)
    # the excluded set is exactly the rational roots of disc(f1^2-4x^5) in r
    # direct check at a grid of sample values: smooth iff r not in {0, 1/3}
    for num in range(-4, 5):
        for den in (1, 2, 3):
            r = F(num, den)
            try:
                curve, _ = fam.nekovar_genus2_curve(r)
                ok = True
            except SingularModelError:
                ok = False
            assert ok == (r not in (F(0), F(1, 3)))


def _two_places_at_infinity(monkeypatch):
    monkeypatch.setattr(fam, "nekovar_3tor_curve", fam.nekovar_genus2_curve)


def _model_of_another_r(monkeypatch):
    real = fam.nekovar_3tor_curve
    monkeypatch.setattr(fam, "nekovar_3tor_curve", lambda r: real(r + 1))


def _h_contact_1_4(monkeypatch):
    """A smooth degree-5 model through O, Q1 and Q2 on which H meets Q1
    once and Q2 four times: y^2 + f1*y + x^5 restricted to y = x - r is
    x*(x - 2r)^4 for this f1."""
    real = fam.nekovar_genus2_curve
    monkeypatch.setattr(fam, "nekovar_genus2_curve", lambda r: (
        fam._y2_model(UniPoly([r, -16 * r**3 - 1, 16 * r**2, -8 * r]), 5)[0], real(r)[1]))


def _swapped_contacts(monkeypatch):
    real = fam._contact_record
    monkeypatch.setattr(fam, "_contact_record", lambda *args, contacts, **kw: real(
        *args, contacts={"Q1": contacts["Q2"], "Q2": contacts["Q1"]}, **kw))


def _swapped_points(monkeypatch):
    real = fam._nekovar_record  # named_points is its seventh argument
    monkeypatch.setattr(fam, "_nekovar_record", lambda *args: real(
        *args[:6], {**args[6], "Q1": args[6]["Q2"], "Q2": args[6]["Q1"]}, *args[7:]))


def _third_contact(monkeypatch):
    real = fam._contact_record
    monkeypatch.setattr(fam, "_contact_record", lambda *args, contacts, **kw: real(
        *args, contacts={**contacts, "O": 1}, **kw))


def _h_meets_conjugate_points(monkeypatch):
    """At r = 2, y = -2 meets x^3 + y^2 - 9xy + 2y at Q1 = (0, -2) and
    where x^2 + 18 = 0: div(h) on the rational points has degree -2."""
    real = fam.nekovar_3tor_curve
    monkeypatch.setattr(fam, "nekovar_3tor_curve", lambda r: (
        real(r)[0], BiPoly.y() + BiPoly.const(r)))


def _contact_point_off_the_curve(monkeypatch):
    real = fam.nekovar_2tor_data
    monkeypatch.setattr(fam, "nekovar_2tor_data", lambda r: {
        **real(r), "Q1": (real(r)["Q1"][0], real(r)["Q1"][1] + 1)})


@pytest.mark.parametrize("family, r, mutate, message", [
    ("nekovar-3tor", "2", _two_places_at_infinity,
     "model must have 1 place(s) at infinity, found 2"),
    ("nekovar-3tor", "2", _model_of_another_r,
     "element nekovar: constancy hypothesis fails: g is not constant (up to sign) on H"),
    ("nekovar-g2", "1/2", _h_contact_1_4,
     "contact pattern {'Q1': 1, 'Q2': 4} != {'Q1': 3, 'Q2': 2}"),
    ("nekovar-3tor", "2", _swapped_contacts,
     "contact pattern {'Q1': 1, 'Q2': 2} != {'Q1': 2, 'Q2': 1}"),
    ("nekovar-g2", "1/2", _swapped_contacts,
     "contact pattern {'Q1': 3, 'Q2': 2} != {'Q1': 2, 'Q2': 3}"),
    ("nekovar-3tor", "2", _swapped_points,
     "contact pattern {'Q2': 1, 'Q1': 2} != {'Q1': 1, 'Q2': 2}"),
    ("nekovar-g2", "1/2", _swapped_points,
     "contact pattern {'Q2': 3, 'Q1': 2} != {'Q1': 3, 'Q2': 2}"),
    ("nekovar-3tor", "2", _third_contact,
     "contact pattern {'Q1': 1, 'Q2': 2} != {'Q1': 1, 'Q2': 2, 'O': 1}"),
    ("nekovar-3tor", "2", _h_meets_conjugate_points,
     "element nekovar: support incomplete: y + 2 has a zero off the declared support"),
    ("nekovar-2tor", "3/4", _contact_point_off_the_curve, "contact point is not on the curve"),
], ids=["place-count", "contact-point", "h-pattern", "3tor-multiplicities",
        "g2-multiplicities", "3tor-points", "g2-points", "3tor-extra-point",
        "3tor-conjugate-points", "2tor-point-off-the-curve"])
def test_contact_record_checks_its_model(monkeypatch, capsys, tmp_path,
                                         family, r, mutate, message):
    """A model that breaks the contact families' postconditions ends gen
    with exit 3 and one line, and writes nothing.  H must meet the curve
    exactly at the named points with their multiplicities: swapped names,
    swapped multiplicities, a named point that H misses or H meeting the
    curve off the rational points all refuse, as does a contact point
    moved off the curve."""
    mutate(monkeypatch)
    out = tmp_path / "r.json"
    assert main(["gen", family, "--r", r, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"verification failure: {message}\n"
    assert not out.exists()


def test_bezout_bookkeeping_over_declared_support():
    """Sum of intersection multiplicities over the record's points equals
    deg(curve) * deg(auxiliary) for every auxiliary line and conic."""
    from k2forge.curves import intersection_multiplicity
    for rec in (fam.gen_quartic_conic_pq(F(1, 2), -1),
                fam.gen_nekovar_genus2(F(1, 2))):
        curve = rec.curve
        seen_projective = set()
        pts = []
        for p in rec.points.values():
            key = (p.kind, p.x, p.y)
            if key not in seen_projective:
                seen_projective.add(key)
                pts.append(p)
        aux = [(BiPoly.line(F(l["coeffs"][0]), F(l["coeffs"][1]), F(l["coeffs"][2])), 1)
               for l in rec.aux_lines]
        for con in rec.aux_conics:
            d1, d2, d3, d4 = (F(c) for c in con["coeffs"])
            from k2forge.curves import Conic
            aux.append((Conic.make(d1, d2, d3, d4).poly(), 2))
        for poly, deg in aux:
            total = 0
            for p in pts:
                on_curve = rec.curve.contains(p)
                if p.is_affine:
                    on_aux = poly(p.x, p.y) == 0
                else:
                    on_aux = poly.top_value(p.x, p.y) == 0
                if on_curve and on_aux:
                    total += intersection_multiplicity(curve, poly, p)
            assert total == curve.degree * deg, (rec.family_id, poly.canonical())


def test_certificate_json_schema():
    rec = fam.gen_nekovar_3tor(2)
    cert = rec.elements[0].certificates[0].to_jsonable()
    assert set(cert) == {"entries", "point_totals", "product", "verdict"}
    row = cert["entries"][0]
    assert {"point", "ord_f", "ord_h", "tame_value"} <= set(row)
    assert cert["verdict"] == "PASS" and cert["product"] == "1"


def test_every_record_has_pass_certificates():
    records = [
        fam.gen_hyp_odd(1, [1, F(1, 3)]),
        fam.gen_hyp_even(1, [2, 3], [1, -1]),
        fam.gen_quartic_lines(2, 1, 1),
        fam.gen_quartic_conic(2, 1, 1, 0),
        fam.gen_nekovar_3tor(F(-3)),
    ]
    for rec in records:
        assert rec.all_pass
        for elem in rec.elements:
            for cert in elem.certificates:
                assert cert.verdict == "PASS"
                assert cert.product == 1


# ---------------------------------------------------------------------------
# each construction claim is proved once, by its block's divisor
# ---------------------------------------------------------------------------

def test_every_triple_support_point_is_a_named_point(tmp_path):
    """On the SMOKE_TUPLES and figure records and the hyp-odd g=4 record,
    `construction_torsion`'s support discovery adds no point to a torsion
    triple beyond the record's named points."""
    corpus = dict.fromkeys([(f, tuple(flags)) for f, flags in SMOKE_TUPLES]
                           + [(f, tuple(flags)) for _, f, flags, _, _ in FIGURES]
                           + [HYP_ODD_DEEP[1]])
    assert len(corpus) == 14
    out, triples = tmp_path / "r.json", 0
    for family, flags in corpus:
        assert main(["gen", family, *flags, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        named = list(data["points"].values())
        for elem in (e for e in data["elements"] if e["kind"] == "triple"):
            triples += 1
            for sym in elem["symbols"]:
                extra = [p for p in sym["support"] if p not in named]
                assert not extra, (family, flags, elem["name"], extra)
    assert triples


def _wrong_contact(monkeypatch):
    real = fam._Marks.vertical
    monkeypatch.setattr(fam._Marks, "vertical", lambda self, name, alpha, beta, contact:
                        real(self, name, alpha, beta, contact + 1))


def _doubled_slope(monkeypatch):
    real = fam._Marks.through_origin
    monkeypatch.setattr(fam._Marks, "through_origin", lambda self, name, slope, q:
                        real(self, name, 2 * slope, q))


def _conic_order_7(monkeypatch):
    real = fam._Marks.add
    monkeypatch.setattr(fam._Marks, "add", lambda self, name, point, fn, order, line=None:
                        real(self, name, point, fn, 7 if name == "R" else order, line))


def _wrong_y_order(monkeypatch):
    real = fam.TorsionFunction  # _contact_record builds only the y block
    monkeypatch.setattr(fam, "TorsionFunction", lambda fn, plus, minus, order:
                        real(fn, plus=plus, minus=minus, order=order + 1))


@pytest.mark.parametrize("family, flags, mutate, element", [
    ("hyp-odd", ["--genus", "2", "--a", "1,1/2,1/4"], _wrong_contact, "{inf,O,P1}"),
    ("quartic-lines", ["--a", "1", "--b", "2", "--c", "1"], _wrong_contact, "{inf,O,P}"),
    ("quartic-lines", ["--a", "1", "--b", "2", "--c", "1"], _doubled_slope, "{inf,O,Q}"),
    ("quartic-conic", ["--d1", "1", "--d2", "2", "--d3", "1", "--d4", "1"], _conic_order_7,
     "{inf,O,R}"),
    ("nekovar-3tor", ["--r", "2"], _wrong_y_order, "nekovar"),
    ("nekovar-g2", ["--r", "1/2"], _wrong_y_order, "nekovar"),
], ids=["hyp-odd-contact", "quartic-lines-contact", "through-origin-slope",
        "conic-order", "3tor-y-order", "g2-y-order"])
def test_broken_construction_claim_is_a_verification_failure(
        monkeypatch, capsys, tmp_path, family, flags, mutate, element):
    """A mark whose claim is false (wrong contact, slope or block order)
    fails its block's divisor check: gen exits 3 with one line naming the
    element and writes nothing."""
    mutate(monkeypatch)
    out = tmp_path / "r.json"
    code = main(["gen", family, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.splitlines() == [err.strip()], err
    assert err.startswith(f"verification failure: element {element}: "), err
    assert not out.exists()
