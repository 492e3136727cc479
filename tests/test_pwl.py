"""Unit and property tests for the exact PWL algebra."""

import copy
import doctest
import importlib
import pickle
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from npkw.pwl import (
    PwlConcave,
    SuperDiff,
    cap_min_const,
    crossing_point,
    decimal_str,
    merge_scaled,
    pwl,
    pwl_eval,
    rat,
    restrict,
    slope_classes,
    slope_right,
    split_at,
    supconv,
    superdiff,
)
from npkw.bellman import _merge_step
from oracles import (
    FracPwl,
    decimal_places_text,
    frac_cap,
    frac_crossing,
    frac_eval,
    frac_lift,
    frac_of,
    frac_slope_right,
    frac_split_at,
    frac_superdiff,
    frac_supconv,
    grid_supconv_max,
)

SETTINGS = {"max_examples": 100, "deadline": None}


def split(record, k, t):
    """``split_at`` of the record's slope classes at the rational t, as
    Fractions."""
    t = Fraction(t)
    nums, den = split_at(slope_classes(record, k), t.numerator,
                         t.denominator)
    assert den > 0
    return tuple(Fraction(n, den) for n in nums)


# ---------------------------------------------------------------------------
# construction / canonical form
# ---------------------------------------------------------------------------

def test_canonicalization_merges_and_drops():
    f = pwl(0, [(3, "1/8"), (3, "1/8"), (2, 0), (1, "3/4")])
    assert f.segments == ((3, Fraction(1, 4)), (1, Fraction(3, 4)))
    assert f.domain_upper == 1


def test_non_concave_rejected():
    with pytest.raises(ValueError):
        pwl(0, [(1, "1/2"), (2, "1/2")])


def test_negative_bits_rejected():
    with pytest.raises(ValueError):
        pwl(-1, [(1, 1)])
    with pytest.raises(ValueError):
        pwl(0, [(-1, 1)])
    with pytest.raises(TypeError):
        rat(0.8)  # binary floats are not exact


def test_decimal_str_rounds_the_exact_value_once():
    # x lies just below the midpoint 0.0000015; a 50-digit quotient rounds
    # it onto the midpoint, and a second rounding to 6 places then gave
    # 0.000002
    x = Fraction(15 * 10**50 - 1, 10**57)
    assert x < Fraction(15, 10**7)
    assert decimal_str(x, 6) == "0.000001"
    # exact midpoints go to the even neighbour, in both formats
    assert decimal_str(Fraction(15, 10**7), 6) == "0.000002"
    assert decimal_str(Fraction(25, 10**7), 6) == "0.000002"
    assert decimal_str(Fraction(1234567890125, 10**13)) == "0.123456789012"
    assert decimal_str(Fraction(1234567890135, 10**13)) == "0.123456789014"
    # the fixed format keeps every place; the significant-digit format
    # writes an exact quotient without trailing zeros and takes an
    # exponent outside Decimal's plain range
    assert [decimal_str(Fraction(v), 6) for v in ("0", "1", "1/4", "2/3")] == [
        "0.000000", "1.000000", "0.250000", "0.666667"]
    assert [decimal_str(Fraction(v)) for v in ("0", "1/4", "2/3")] == [
        "0", "0.25", "0.666666666667"]
    assert decimal_str(Fraction(1, 10**8)) == "1E-8"
    assert decimal_str(Fraction(10**15 + 1)) == "1.00000000000E+15"
    assert decimal_str(Fraction(-1, 10**8), 6) == "-0.000000"


@settings(max_examples=300, deadline=None)
@given(places=st.integers(min_value=0, max_value=8),
       num=st.integers(min_value=-10**12, max_value=10**12),
       den=st.integers(min_value=1, max_value=10**9),
       kind=st.sampled_from(["any", "tiny", "tie"]))
def test_decimal_str_places_matches_the_decimal_oracle(places, num, den, kind):
    """The integer fixed-point branch writes what ``Decimal`` wrote: any
    sign, values that round to (minus) zero, and exact half ties, whose
    rounded neighbours below are odd or even as ``num`` is."""
    x = Fraction(num, den)
    if kind == "tiny":  # under half a unit in the last place
        x = Fraction(num, 2 * abs(num) + 1) / 10**places
    elif kind == "tie":  # exactly halfway between num and num + 1 units
        x = Fraction(2 * num + 1, 2 * 10**places)
    assert decimal_str(x, places) == decimal_places_text(x, places)


def test_empty_domain_is_legal():
    f = pwl("3/4")
    assert f.domain_upper == 0
    assert pwl_eval(f, 0) == Fraction(3, 4)
    assert superdiff(f, 0) == SuperDiff(0, 0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_pinned():
    f = pwl(0, [(2, "1/4"), (0, "3/4")])
    assert pwl_eval(f, "1/8") == Fraction(1, 4)
    assert pwl_eval(f, 1) == Fraction(1, 2)
    assert pwl_eval(f, "1/4") == Fraction(1, 2)
    with pytest.raises(ValueError):
        pwl_eval(f, 2)


def test_value_at_upper():
    f = pwl("1/3", [(4, "1/2"), (1, "1/2")])
    assert f.value_at_upper == Fraction(1, 3) + 2 + Fraction(1, 2)
    assert f.value_at_upper == pwl_eval(f, f.domain_upper)


# ---------------------------------------------------------------------------
# superdifferential
# ---------------------------------------------------------------------------

def test_superdiff_conventions():
    f = pwl(0, [(3, "1/4"), (1, "3/4")])
    assert superdiff(f, "1/4") == SuperDiff(1, 3)   # interior kink
    assert superdiff(f, 0) == SuperDiff(3, 3)       # right derivative only
    assert superdiff(f, 1) == SuperDiff(0, 1)       # clamped at right end
    assert superdiff(f, "1/8") == SuperDiff(3, 3)   # interior of a segment
    assert 2 in superdiff(f, "1/4")
    assert 4 not in superdiff(f, "1/4")


def test_slope_right_linear_extension():
    f = pwl(0, [(3, "1/4"), (1, "3/4")])
    assert slope_right(f, 1) == 1          # linear extension, not 0
    assert slope_right(f, "1/4") == 1
    assert slope_right(f, 0) == 3
    assert superdiff(f, 1).hi == 1          # the slope to the left
    assert superdiff(f, "1/4").hi == 3
    assert superdiff(f, 0).hi == 3


# ---------------------------------------------------------------------------
# cap / crossing
# ---------------------------------------------------------------------------

def test_cap_pinned():
    f = pwl(0, [(2, 1)])
    capped = cap_min_const(f, "3/2")
    assert capped.segments == ((2, Fraction(3, 4)), (0, Fraction(1, 4)))
    assert crossing_point(f, "3/2") == Fraction(3, 4)


def test_cap_never_reached_returns_same_function():
    f = pwl(0, [(1, 1)])
    assert cap_min_const(f, 5) == f
    assert crossing_point(f, 5) is None


def test_cap_at_zero_gives_constant():
    f = pwl(2, [(1, 1)])
    capped = cap_min_const(f, 2)
    assert capped.segments == ((0, Fraction(1)),)
    assert capped.value_at_zero == 2
    assert crossing_point(f, 2) == 0


def test_cap_touching_right_end_exactly():
    # f(t) = t on [0,1], cap at 1: crossing at the right end, not None.
    f = pwl(0, [(1, 1)])
    assert crossing_point(f, 1) == 1
    assert cap_min_const(f, 1) == f


def lifted(f, cap=10**6):
    """t -> t + f(t) as the recursion builds it: its merge step over the
    single operand f, lifted and capped at ``cap``; with the default cap,
    which no slice here reaches, the capped slice is the lift itself."""
    cap = Fraction(cap)
    return _merge_step([f], [1], f.scale, f.upper, cap.numerator,
                       cap.denominator)


def test_lift_identity():
    f = pwl("1/2", [(1, 1)])
    assert lifted(f)[:2] == (None, pwl("1/2", [(2, 1)]))
    g = pwl("16/25", [(0, 1)])
    crossing, lift, _ = lifted(g)
    assert crossing is None
    assert lift.segments == ((1, Fraction(1)),)
    assert lift.value_at_zero == Fraction(16, 25)


# ---------------------------------------------------------------------------
# sup-convolution
# ---------------------------------------------------------------------------

def test_supconv_identical_single_segment():
    f = pwl(0, [(1, 1)])
    res, record = supconv([f, f], 1)
    assert res.segments == ((1, Fraction(1)),)
    assert res.value_at_zero == 0
    assert record == (1, [(1, 0, 1), (1, 1, 1)])
    # tied slope class shared in proportion to widths: an even split
    assert split(record, 2, 1) == (Fraction(1, 2), Fraction(1, 2))
    assert split(record, 2, "1/2") == (Fraction(1, 4), Fraction(1, 4))
    # numerators over one denominator, not reduced
    assert split_at(slope_classes(record, 2), 2, 4) == ([2, 2], 8)


def test_supconv_merge_order_and_values():
    f1 = pwl(1, [(3, "1/2"), (1, "1/2")])
    f2 = pwl(0, [(2, 1)])
    res, record = supconv([f1, f2], 1)
    # slopes consumed: 3 (op0, 1/2) then 2 (op1, 1/2 of its width)
    assert res.segments == ((3, Fraction(1, 2)), (2, Fraction(1, 2)))
    assert res.value_at_zero == 1
    # the pool keeps every operand segment whole, over the common scale
    assert record == (2, [(3, 0, 1), (2, 1, 2), (1, 0, 1)])
    assert split(record, 2, 1) == (Fraction(1, 2), Fraction(1, 2))
    assert split(record, 2, "3/4") == (Fraction(1, 2), Fraction(1, 4))
    # value equals the best allocation's sum
    assert pwl_eval(res, 1) == pwl_eval(f1, "1/2") + pwl_eval(f2, "1/2")


def test_supconv_symmetric_kink_splits_equally():
    # both operands kink at 1/2 with the target landing exactly on the
    # merged class boundary: the split comes out equal
    f = pwl(0, [(2, "1/2"), (0, "1/2")])
    res, record = supconv([f, f], 1)
    assert res.segments == ((2, Fraction(1)),)
    assert split(record, 2, 1) == (Fraction(1, 2), Fraction(1, 2))


def test_supconv_target_bounds():
    f = pwl(0, [(1, 1)])
    with pytest.raises(ValueError):
        supconv([f, f], 3)
    res, _ = supconv([f, f], 2)
    assert res.domain_upper == 2
    res0, record0 = supconv([f, f], 0)
    assert res0.segments == ()
    assert split(record0, 2, 0) == (Fraction(0), Fraction(0))


def test_split_at_out_of_range():
    # the pool holds the operands' whole domains: t may reach their total
    f = pwl(0, [(1, 1)])
    _, record = supconv([f, f], 1)
    assert split(record, 2, 2) == (Fraction(1), Fraction(1))
    for t in (Fraction(-1, 3), Fraction(2) + Fraction(1, 97)):
        with pytest.raises(ValueError, match="outside the merged domain"):
            split(record, 2, t)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

widths = st.fractions(min_value=Fraction(1, 16), max_value=2, max_denominator=16)


@st.composite
def pwl_functions(draw, max_segments=4, max_slope=8):
    n = draw(st.integers(min_value=0, max_value=max_segments))
    slopes = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_slope),
            min_size=n, max_size=n, unique=True,
        )
    )
    slopes.sort(reverse=True)
    segs = [(s, draw(widths)) for s in slopes]
    f0 = draw(st.fractions(min_value=0, max_value=4, max_denominator=16))
    return pwl(f0, segs)


@settings(**SETTINGS)
@given(pwl_functions(), st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_eval_matches_segment_sum(f, frac):
    t = f.domain_upper * frac
    # independent evaluation: accumulate min(remaining, width) per segment
    v = f.value_at_zero
    left = t
    for slope, width in f.segments:
        step = min(left, width)
        v += slope * step
        left -= step
    assert pwl_eval(f, t) == v


@settings(**SETTINGS)
@given(pwl_functions())
def test_reconstruction_is_idempotent(f):
    assert pwl(f.value_at_zero, f.segments) == f


@settings(**SETTINGS)
@given(pwl_functions(), st.fractions(min_value=0, max_value=6, max_denominator=8))
def test_cap_is_pointwise_min(f, c):
    capped = cap_min_const(f, c)
    assert capped.domain_upper == f.domain_upper
    for i in range(9):
        t = f.domain_upper * Fraction(i, 8)
        assert pwl_eval(capped, t) == min(pwl_eval(f, t), c)


@settings(**SETTINGS)
@given(pwl_functions(), st.fractions(min_value=0, max_value=6, max_denominator=8))
def test_cap_with_known_crossing_is_the_same_cap(f, c):
    # the recursion passes the crossing it needs anyway instead of rescanning
    t_star = crossing_point(f, c)
    assert cap_min_const(f, c, crossing=t_star) == cap_min_const(f, c)


@settings(**SETTINGS)
@given(pwl_functions(), st.fractions(min_value=0, max_value=1, max_denominator=32))
def test_superdiff_is_a_supergradient_interval(f, frac):
    t = f.domain_upper * frac
    sd = superdiff(f, t)
    assert sd.lo <= sd.hi
    ft = pwl_eval(f, t)
    for s in {sd.lo, sd.hi}:
        # supergradient inequality f(y) <= f(t) + s (y - t) on the domain
        for j in range(5):
            y = f.domain_upper * Fraction(j, 4)
            assert pwl_eval(f, y) <= ft + s * (y - t)


@settings(**SETTINGS)
@given(
    st.lists(pwl_functions(max_segments=3, max_slope=6), min_size=2, max_size=2),
    st.fractions(min_value=0, max_value=1, max_denominator=32),
)
def test_supconv_against_grid_oracle(fs, frac):
    total = sum(f.domain_upper for f in fs)
    t = total * frac
    res, _ = supconv(fs, total)
    exact = pwl_eval(res, t)
    steps = 64
    approx = grid_supconv_max(fs, t, steps)
    slope_max = max((f.segments[0][0] for f in fs if f.segments), default=0)
    # grid search can only undershoot, and by at most one step's worth
    assert approx <= exact
    assert exact - approx <= Fraction(slope_max) * t / steps if t > 0 else exact == approx


@settings(**SETTINGS)
@given(
    st.lists(pwl_functions(max_segments=3, max_slope=6), min_size=2, max_size=2),
    st.fractions(min_value=0, max_value=1, max_denominator=32),
)
def test_split_is_feasible_and_achieves_value(fs, frac):
    total = sum(f.domain_upper for f in fs)
    t = total * frac
    res, record = supconv(fs, total)
    alloc = split(record, len(fs), t)
    assert sum(alloc) == t
    for a, f in zip(alloc, fs):
        assert 0 <= a <= f.domain_upper
    assert sum(pwl_eval(f, a) for f, a in zip(fs, alloc)) == pwl_eval(res, t)


@settings(**SETTINGS)
@given(st.lists(pwl_functions(max_segments=3, max_slope=6), min_size=3, max_size=3))
def test_supconv_is_associative(fs):
    total = sum(f.domain_upper for f in fs)
    all_at_once, _ = supconv(fs, total)
    pair, _ = supconv(fs[:2], fs[0].domain_upper + fs[1].domain_upper)
    nested, _ = supconv([pair, fs[2]], total)
    assert all_at_once == nested


@settings(**SETTINGS)
@given(
    st.lists(pwl_functions(max_segments=3, max_slope=6), min_size=2, max_size=3),
    st.fractions(min_value=Fraction(1, 32), max_value=Fraction(31, 32), max_denominator=32),
)
def test_supconv_superdiff_intersects_operands(fs, frac):
    """At interior t, the result's superdiff is contained in every operand's
    superdiff at the canonical allocation (sup-convolution calculus)."""
    total = sum(f.domain_upper for f in fs)
    t = total * frac
    if t == 0 or t == total:
        return
    res, record = supconv(fs, total)
    sd = superdiff(res, t)
    alloc = split(record, len(fs), t)
    for f, a in zip(fs, alloc):
        op_sd = superdiff(f, a)
        lo = op_sd.lo if a < f.domain_upper else 0  # clamped half-line at edge
        assert lo <= sd.lo <= sd.hi
        if a > 0:
            assert sd.hi <= op_sd.hi


# ---------------------------------------------------------------------------
# integers over one scale against the Fraction oracle
# ---------------------------------------------------------------------------

def test_slices_are_stored_reduced_over_one_scale():
    f = pwl("1/6", [(3, "1/4"), (1, "3/4")])
    assert (f.scale, f.v0, f.segs, f.upper) == (12, 2, ((3, 3), (1, 9)), 12)
    # any common factor is divided out, so equal functions compare and hash
    # equal whatever scale they were built over
    g = PwlConcave.reduced(36, 6, [(3, 9), (1, 27)], 36)
    assert g == f and hash(g) == hash(f)
    with pytest.raises(ValueError):
        PwlConcave(36, 6, ((3, 9), (1, 27)), 36)  # not reduced
    with pytest.raises(ValueError):
        PwlConcave(12, 2, ((3, 3), (1, 9)), 13)  # widths miss the domain
    with pytest.raises(ValueError):
        PwlConcave(12, 2, ((1, 3), (3, 9)), 12)  # not concave
    with pytest.raises(ValueError):
        PwlConcave(0, 0, (), 0)  # no scale


def test_slices_are_immutable_and_equal_only_to_slices():
    f = pwl("1/6", [(3, "1/4"), (1, "3/4")])
    for name in ("scale", "v0", "segs", "upper"):
        with pytest.raises(AttributeError):
            setattr(f, name, 1)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert f.scale == 12
    # a slice is not the tuple of its fields
    assert f != (f.scale, f.v0, f.segs, f.upper)
    assert repr(f) == "PwlConcave(scale=12, v0=2, segs=((3, 3), (1, 9)), upper=12)"
    assert pickle.loads(pickle.dumps(f)) == f and copy.deepcopy(f) == f


# widths with many distinct denominators, so operands rarely share a scale
odd_widths = st.fractions(min_value=Fraction(1, 97), max_value=2,
                          max_denominator=97)
points = st.fractions(min_value=0, max_value=1, max_denominator=97)


@st.composite
def slices(draw, max_segments=4, max_slope=9):
    n = draw(st.integers(min_value=0, max_value=max_segments))
    slopes = sorted(draw(st.lists(st.integers(min_value=0, max_value=max_slope),
                                  min_size=n, max_size=n, unique=True)),
                    reverse=True)
    f0 = draw(st.fractions(min_value=0, max_value=5, max_denominator=97))
    return pwl(f0, [(s, draw(odd_widths)) for s in slopes])


@st.composite
def points_in(draw, f):
    """A point of f's domain: a kink, an end, or anywhere in between."""
    kinks = [Fraction(0)]
    for _, w in f.segments:
        kinks.append(kinks[-1] + w)
    if draw(st.booleans()):
        return draw(st.sampled_from(kinks))
    return f.domain_upper * draw(points)


def assert_same(f: PwlConcave, o: FracPwl):
    assert frac_of(f) == o
    assert PwlConcave.reduced(f.scale, f.v0, f.segs, f.upper) == f


@settings(**SETTINGS)
@given(st.data())
def test_pwl_builder_matches_merge_by_hand(data):
    segs = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=6),
                  st.fractions(min_value=0, max_value=2, max_denominator=12)),
        max_size=6))
    segs.sort(key=lambda e: -e[0])
    f0 = data.draw(st.fractions(min_value=0, max_value=3, max_denominator=12))
    merged: list[tuple[int, Fraction]] = []
    for slope, w in segs:
        if w == 0:
            continue
        if merged and merged[-1][0] == slope:
            merged[-1] = (slope, merged[-1][1] + w)
        else:
            merged.append((slope, w))
    f = pwl(f0, segs)
    assert_same(f, FracPwl(f0, tuple(merged), sum((w for _, w in merged),
                                                  Fraction(0))))
    assert pwl(f.value_at_zero, f.segments) == f


@settings(**SETTINGS)
@given(slices(), st.data())
def test_pointwise_functions_match_oracle(f, data):
    o = frac_of(f)
    t = data.draw(points_in(f))
    assert pwl_eval(f, t) == frac_eval(o, t)
    assert f.value_at_upper == frac_eval(o, o.domain_upper)
    assert superdiff(f, t) == frac_superdiff(o, t)
    assert slope_right(f, t) == frac_slope_right(o, t)
    beyond = f.domain_upper + Fraction(1, 97)
    for bad in (beyond, Fraction(-1, 97)):
        for fn in (pwl_eval, superdiff, slope_right):
            with pytest.raises(ValueError):
                fn(f, bad)
            with pytest.raises(ValueError):
                (frac_eval if fn is pwl_eval else
                 frac_superdiff if fn is superdiff else frac_slope_right)(o, bad)


@settings(**SETTINGS)
@given(slices(), st.data())
def test_cap_crossing_and_lift_match_oracle(f, data):
    o = frac_of(f)
    # a level anywhere, or exactly at a kink's value
    if data.draw(st.booleans()):
        c = frac_eval(o, data.draw(points_in(f)))
    else:
        c = data.draw(st.fractions(min_value=0, max_value=40, max_denominator=97))
    assert crossing_point(f, c) == frac_crossing(o, c)
    assert_same(cap_min_const(f, c), frac_cap(o, c))
    assert_same(cap_min_const(f, c, crossing=crossing_point(f, c)), frac_cap(o, c))
    crossing, capped, _ = lifted(f, c)
    assert lifted(f)[0] is None
    assert_same(lifted(f)[1], frac_lift(o))
    assert crossing == frac_crossing(frac_lift(o), c)
    assert_same(capped, frac_cap(frac_lift(o), c))


@settings(**SETTINGS)
@given(st.lists(slices(max_segments=3), min_size=1, max_size=3), st.data())
def test_supconv_and_split_match_oracle(fs, data):
    total = sum((f.domain_upper for f in fs), Fraction(0))
    target = total * data.draw(points)
    if data.draw(st.booleans()):
        target = data.draw(st.sampled_from([Fraction(0), total, Fraction(1)]))
    ops = [frac_of(f) for f in fs]
    if target > total:
        with pytest.raises(ValueError):
            supconv(fs, target)
        with pytest.raises(ValueError):
            frac_supconv(ops, target)
        return
    res, (scale, pool) = supconv(fs, target)
    o_res, o_sm = frac_supconv(ops, target)
    assert_same(res, o_res)
    assert [(op, s, Fraction(w, scale)) for s, op, w in pool] == \
        list(o_sm.entries)
    assert o_sm.target == res.domain_upper
    for _ in range(3):
        t = data.draw(points_in(res))
        assert split((scale, pool), len(fs), t) == frac_split_at(o_sm, t)
    with pytest.raises(ValueError):
        split((scale, pool), len(fs), total + Fraction(1, 97))


@settings(**SETTINGS)
@given(slices(), st.data())
def test_restrict_keeps_the_function_on_the_shorter_domain(f, data):
    u = data.draw(points_in(f))
    g = restrict(f, u)
    assert g.domain_upper == u
    assert PwlConcave.reduced(g.scale, g.v0, g.segs, g.upper) == g
    for _ in range(3):
        t = data.draw(points_in(g))
        assert pwl_eval(g, t) == pwl_eval(f, t)
    with pytest.raises(ValueError):
        restrict(f, f.domain_upper + Fraction(1, 97))


@settings(**SETTINGS)
@given(st.lists(slices(max_segments=3), min_size=1, max_size=3), st.data())
def test_weighted_merge_is_the_supconv_of_the_scaled_functions(fs, data):
    """Multiplier c * (scale // f.scale) merges t -> c * f(t / c), the
    function with f's slopes and c times its value and widths."""
    weights = [data.draw(st.fractions(min_value=Fraction(1, 9), max_value=3,
                                      max_denominator=9)) for _ in fs]
    total = sum((c * f.domain_upper for c, f in zip(weights, fs)), Fraction(0))
    target = total * data.draw(points)
    scale = lcm(target.denominator,
                *(c.denominator * f.scale for c, f in zip(weights, fs)))
    mults = [scale // (c.denominator * f.scale) * c.numerator
             for c, f in zip(weights, fs)]
    upper = int(target * scale)
    v0, segs, _ = merge_scaled(fs, mults, scale, upper)
    scaled = [pwl(c * f.value_at_zero, [(s, c * w) for s, w in f.segments])
              for c, f in zip(weights, fs)]
    assert PwlConcave.reduced(scale, v0, segs, upper) == \
        supconv(scaled, target)[0]


def test_merge_step_cuts_a_later_segment_over_a_finer_scale():
    # t + f(t) for f = 3t on [0, 1/2], then 1 + t: 4t, then 2 + 2(t - 1/2)
    # reaches 8/3 at t = 5/6, past the first segment and off the halves
    f = pwl(0, [(3, "1/2"), (1, "1/2")])
    crossing, capped, pool = _merge_step([f], [1], 2, 2, 16, 6)
    assert crossing == Fraction(5, 6)
    assert capped == pwl(0, [(4, "1/2"), (2, "1/3"), (0, "1/6")])
    assert pool == [(3, 0, 1), (1, 0, 1)]


@settings(**SETTINGS)
@given(st.lists(slices(max_segments=3), min_size=1, max_size=3), st.data())
def test_merge_step_is_the_merge_lift_crossing_and_cap(fs, data):
    """The solve's one walk returns the crossing, the capped slice and the
    pool of the composition it replaces (``merge_scaled``, the lift,
    ``crossing_point``, then ``cap_min_const``) and of the Fraction
    oracle, for operands taken as they are or through the multipliers of
    ``horizon_roots``, and a cap that the lift reaches at 0, at a kink,
    at the domain end, anywhere or never, given in any terms."""
    weights = [Fraction(1)] * len(fs)
    if data.draw(st.booleans()):  # t -> c * f(t / c), as horizon_roots
        weights = [data.draw(st.fractions(min_value=Fraction(1, 9),
                                          max_value=3, max_denominator=9))
                   for _ in fs]
    total = sum((c * f.domain_upper for c, f in zip(weights, fs)), Fraction(0))
    target = total * data.draw(points)
    scale = lcm(target.denominator,
                *(c.denominator * f.scale for c, f in zip(weights, fs)))
    mults = [scale // (c.denominator * f.scale) * c.numerator
             for c, f in zip(weights, fs)]
    upper = int(target * scale)
    v0, segs, pool = merge_scaled(fs, mults, scale, upper)
    lift = PwlConcave.reduced(scale, v0, [(s + 1, w) for s, w in segs], upper)

    kinks = [Fraction(0)]
    for _, w in lift.segments:
        kinks.append(kinks[-1] + w)
    where = data.draw(st.sampled_from(["zero", "kink", "end", "anywhere",
                                       "never"]))
    if where == "zero":
        cap = lift.value_at_zero * data.draw(points)
    elif where == "kink":
        kink = data.draw(st.sampled_from(kinks))
        cap = lift(kink)
    elif where == "end":
        cap = lift.value_at_upper
    elif where == "anywhere":  # inside a segment, off the merge's scale
        i = data.draw(st.integers(min_value=0, max_value=len(kinks) - 1))
        # 101 is prime and no width's denominator divides by it
        step = Fraction(data.draw(st.integers(min_value=1, max_value=100)),
                        101)
        cap = lift(kinks[i] + (kinks[min(i + 1, len(kinks) - 1)] - kinks[i])
                   * step)
    else:
        cap = lift.value_at_upper + data.draw(odd_widths)
    terms = data.draw(st.integers(min_value=1, max_value=4))

    crossing, capped, got_pool = _merge_step(
        fs, mults, scale, upper, cap.numerator * terms,
        cap.denominator * terms)
    assert crossing == crossing_point(lift, cap)
    assert capped == cap_min_const(lift, cap)
    assert got_pool == pool
    # every lifted slope is at least 1, so the lift reaches each level once
    if where == "zero":
        assert crossing == 0
    elif where == "kink":
        assert crossing == kink
    elif where == "end":
        assert crossing == target
    elif where == "never":
        assert crossing is None

    ops = [FracPwl(c * f.value_at_zero,
                   tuple((s, c * w) for s, w in f.segments),
                   c * f.domain_upper) for c, f in zip(weights, fs)]
    merged, record = frac_supconv(ops, target)
    assert crossing == frac_crossing(frac_lift(merged), cap)
    assert_same(capped, frac_cap(frac_lift(merged), cap))
    assert tuple((op, s, Fraction(w, scale)) for s, op, w in pool) == \
        record.entries
    with pytest.raises(ValueError, match="exceeds total operand domain"):
        _merge_step(fs, mults, scale, int(total * scale) + 1, 1, 1)


@settings(**SETTINGS)
@given(st.lists(slices(max_segments=3), min_size=1, max_size=3), st.data())
def test_split_at_bisects_the_slope_classes_as_the_oracle_walks_the_pool(
        fs, data):
    """``split_at`` of ``slope_classes`` gives the Fraction oracle's
    allocation, for operands taken as they are or through the multipliers
    of ``horizon_roots``: at 0, at every class end up to the total domain,
    at a point inside each class and anywhere."""
    weights = [Fraction(1)] * len(fs)
    if data.draw(st.booleans()):  # t -> c * f(t / c), as horizon_roots
        weights = [data.draw(st.fractions(min_value=Fraction(1, 9),
                                          max_value=3, max_denominator=9))
                   for _ in fs]
    total = sum((c * f.domain_upper for c, f in zip(weights, fs)), Fraction(0))
    scale = lcm(*(c.denominator * f.scale for c, f in zip(weights, fs)))
    mults = [scale // (c.denominator * f.scale) * c.numerator
             for c, f in zip(weights, fs)]
    _, _, pool = merge_scaled(fs, mults, scale, 0)
    classes = slope_classes((scale, pool), len(fs))
    ops = [FracPwl(c * f.value_at_zero,
                   tuple((s, c * w) for s, w in f.segments),
                   c * f.domain_upper) for c, f in zip(weights, fs)]
    _, record = frac_supconv(ops, total)
    # the oracle's slope classes: runs of equal slopes in its sorted pool
    ends, slopes = [Fraction(0)], []
    for _, s, w in record.entries:
        if slopes and slopes[-1] == s:
            ends[-1] += w
        else:
            slopes.append(s)
            ends.append(ends[-1] + w)
    assert classes[2] == slopes

    def check(t):
        nums, den = split_at(classes, t.numerator, t.denominator)
        assert den > 0
        assert tuple(Fraction(n, den) for n in nums) == \
            frac_split_at(record, t)

    for end in ends:
        check(end)
    for c in range(len(slopes)):
        step = Fraction(data.draw(st.integers(min_value=1, max_value=100)),
                        101)
        check(ends[c] + (ends[c + 1] - ends[c]) * step)
    check(total * data.draw(points))
    for bad in (Fraction(-1, 97), total + Fraction(1, 97)):
        with pytest.raises(ValueError, match="outside the merged domain"):
            split_at(classes, bad.numerator, bad.denominator)


def test_docstring_examples_hold():
    # `npkw.pwl` the attribute is the constructor; the module is imported
    # by its name
    results = doctest.testmod(importlib.import_module("npkw.pwl"))
    assert results.attempted and not results.failed
