"""Tests for the model, state enumeration and the backward recursion.

The exact expectations for horizons 1 and 2 below are derived by hand:

theta = (0.8, 0.2), lam1 = lam2 = 20, horizon 1:
  depth-1 states: (1,0) has z = (1/5, 4/5), stop risk g = min(4, 16) = 4;
  (0,1) symmetric, g = 4.  Root continuation d is the sup-convolution of
  two constants = 4 + 4 = 8, so rho_root(z0) = min(20, z0 + 8) = z0 + 8
  (never capped on [0,1]) and the threshold is the always-continue sentinel.

same model, horizon 2:
  (2,0): z = (1/25, 16/25), g = 4/5;   (1,1): z = (4/25, 4/25), g = 16/5.
  At (1,0): d = 4/5 + 16/5 = 4 (constant), z0 + d crosses g = 4 at z0 = 0,
  so rho = const 4 and the threshold is exactly 0 (stop for any z0 > 0:
  a second sample can never pay for itself there).  Root again z0 + 8.
"""

import gc
import json
import pickle
import re
import weakref
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from npkw import bellman
from npkw.bellman import (
    CostTable,
    ExtractionError,
    backward_recursion,
    bernoulli_model,
    build_states,
    child_counts,
    cost_table_from_json,
    cost_table_to_json_str,
    horizon_roots,
    kwt_truncation_bound,
    kwt_truncation_closed_form,
    make_model,
    NominalModel,
    _counts_at_depth,
    _mirror,
    _state_maker,
)
from npkw.pwl import pwl, pwl_eval
from oracles import (
    brute_minimax_value,
    cost_table_text,
    frac_recursion,
    frac_recursion_json,
    simplex_grid,
)

SETTINGS = {"max_examples": 60, "deadline": None}

FIG_MODEL = dict(theta1="0.8", theta2="0.2", lam1=20, lam2=20)


def fig_model(horizon):
    return bernoulli_model(horizon=horizon, **FIG_MODEL)


F1, F2, F4, F34 = Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)


# ---------------------------------------------------------------------------
# model and state construction
# ---------------------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ValueError):
        make_model(["1/2", "1/2"], ["1/2", "1/2"], 1, 1, 5)  # equal PMFs
    with pytest.raises(ValueError):
        make_model(["1/2", "1/3"], ["1/2", "1/2"], 1, 1, 5)  # doesn't sum to 1
    with pytest.raises(ValueError):
        make_model(["1/2", "1/2"], ["1/4", "3/4"], 0, 1, 5)  # lam must be > 0
    with pytest.raises(ValueError):
        bernoulli_model("0.8", "0.2", 20, 20, 0)  # horizon >= 1
    with pytest.raises(ValueError):
        bernoulli_model(1, "0.2", 20, 20, 5)  # theta strictly inside (0,1)


@pytest.mark.parametrize("args", [
    ((F2, F2), (F4, F34, F4), F1, F1, 5),        # PMF lengths differ
    ((Fraction(1),), (Fraction(1),), F1, F1, 5),  # one symbol
    ((0.5, 0.5), (F4, F34), F1, F1, 5),           # float entries
    ((Fraction(3, 2), -F2), (F4, F34), F1, F1, 5),  # a negative entry
    ((F2, F2), (F4, F34), F1, Fraction(0), 5),    # lam2 must be > 0
], ids=["lengths", "one-symbol", "floats", "negative", "lam2"])
def test_model_rejects_bad_fields(args):
    with pytest.raises(ValueError):
        NominalModel(*args)


def test_models_and_states_are_immutable_records():
    model = fig_model(5)
    assert model == fig_model(5) and hash(model) == hash(fig_model(5))
    assert model != fig_model(6)
    # a model is not the tuple of its fields
    assert model != (model.p1, model.p2, model.lam1, model.lam2, model.horizon)
    state = build_states(model)[1][0]
    for record, name in ((model, "horizon"), (model, "p1"), (state, "g"),
                         (state, "counts")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    assert model.horizon == 5 and state.counts == (0, 1)
    assert pickle.loads(pickle.dumps(model)) == model


def test_state_likelihoods_pinned():
    # two successes in three samples: the worked example values
    st_ = _state_maker(fig_model(5), 3)((1, 2))
    assert st_.depth == 3
    assert st_.z1 == Fraction(16, 125)
    assert st_.z2 == Fraction(4, 125)
    assert st_.g == Fraction(16, 25)


def test_state_counting():
    model = fig_model(21)
    per_depth = build_states(model)
    assert len(per_depth[21]) == 22
    assert len(per_depth[0]) == 1
    # three symbols: C(n+2, 2) states at depth n
    m3 = make_model(["1/2", "1/2", "0"], ["1/2", "0", "1/2"], 20, 20, 4)
    assert len(build_states(m3)[4]) == 15


@pytest.mark.parametrize("model", [
    fig_model(9),
    make_model(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], 20, 20, 7),
    make_model(["1/2", "1/2", "0"], ["1/2", "0", "1/2"], 20, 20, 6),
    make_model(["1/10", "3/5", "0", "3/10"], ["0", "3/10", "1/10", "3/5"],
               "7/3", "7/3", 5),
    bernoulli_model("0.7", "0.4", 20, 30, 8),  # no mirror
])
def test_states_built_from_a_mirror_equal_direct_states(model):
    # a mirror state takes its partner's z1 and z2 swapped and its g
    direct = _state_maker(model, model.horizon)
    per_depth = build_states(model)
    for n, states in per_depth.items():
        assert [st_.counts for st_ in states] == list(_counts_at_depth(
            model.alphabet_size, n))
        for st_ in states:
            assert st_ == direct(st_.counts)


@settings(**SETTINGS)
@given(
    k=st.sampled_from([2, 3]),
    w1=st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=3),
    w2=st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=3),
    mirror=st.booleans(),
    lam1=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    lam2=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    horizon=st.integers(min_value=1, max_value=6),
)
@example(k=3, w1=[1, 2, 0], w2=[0, 0, 0], mirror=True, lam1=Fraction(20),
         lam2=Fraction(1), horizon=4)
@example(k=2, w1=[2, 3, 0], w2=[5, 1, 0], mirror=False, lam1=Fraction(7, 3),
         lam2=Fraction(5), horizon=5)
def test_integer_states_are_the_fraction_likelihoods(k, w1, w2, mirror, lam1,
                                                     lam2, horizon):
    """A state keeps z1 and z2 as integers over D**n and g over L * D**n
    (D, L the lcm of the PMF and the lambda denominators); its Fraction
    views are the likelihoods and the stopping risk of the Fraction
    recursion, and a mirror twin holds its partner's integers with the z1
    and z2 numerators swapped."""
    w1, w2 = w1[:k], w2[:k]
    assume(sum(w1) > 0)
    p1 = [Fraction(w, sum(w1)) for w in w1]
    if mirror:  # p2 = p1 reversed, with equal weights: sigma reverses
        p2, lam2 = p1[::-1], lam1
    else:
        assume(sum(w2) > 0)
        p2 = [Fraction(w, sum(w2)) for w in w2]
    assume(p1 != p2)
    model = make_model(p1, p2, lam1, lam2, horizon)
    table = backward_recursion(model)
    solved = frac_recursion(p1, p2, lam1, lam2, horizon)
    den = lcm(*(v.denominator for v in model.p1 + model.p2))
    lam_den = lcm(model.lam1.denominator, model.lam2.denominator)
    assert table.states.keys() == solved.keys()
    for counts, st_ in table.states.items():
        want = solved[counts]
        assert (st_.z1, st_.z2, st_.g) == (want.z1, want.z2, want.g)
        assert st_.depth == sum(counts)
        assert (st_.den, st_.g_den) == (den**st_.depth,
                                        lam_den * den**st_.depth)
        twin = table.twins.get(counts)
        if twin is not None:
            partner = table.states[twin]
            assert (st_.z1_num, st_.z2_num, st_.g_num, st_.den, st_.g_den) \
                == (partner.z2_num, partner.z1_num, partner.g_num,
                    partner.den, partner.g_den)
    assert bool(table.twins) == (_mirror(model) is not None)
    if mirror:
        assert table.twins


def test_child_counts():
    assert child_counts((2, 1), 0) == (3, 1)
    assert child_counts((2, 1), 1) == (2, 2)


# ---------------------------------------------------------------------------
# recursion: exact hand-derived slices for tiny horizons
# ---------------------------------------------------------------------------

def test_horizon_1_exact():
    table = backward_recursion(fig_model(1))
    assert table.rho[(1, 0)] == pwl(4, [(0, 1)])
    assert table.rho[(0, 1)] == pwl(4, [(0, 1)])
    root = table.rho[(0, 0)]
    assert root == pwl(8, [(1, 1)])
    assert table.root_value() == 9
    assert table.z0_star[(0, 0)] is None  # always-continue sentinel


def test_horizon_2_exact():
    table = backward_recursion(fig_model(2))
    assert table.states[(2, 0)].g == Fraction(4, 5)
    assert table.states[(1, 1)].g == Fraction(16, 5)
    # a second sample never pays at depth 1: capped at z0 = 0
    assert table.rho[(1, 0)] == pwl(4, [(0, 1)])
    assert table.z0_star[(1, 0)] == 0
    assert table.rho[(0, 0)] == pwl(8, [(1, 1)])
    assert table.root_value() == 9
    with pytest.raises(KeyError):
        table.z0_star[(2, 0)]  # horizon states have no threshold


def test_internal_state_identities():
    """rho(0) = d(0) and rho = min(g, z0 + d(z0)) pointwise."""
    table = backward_recursion(fig_model(5))
    for counts, d_slice in table.d.items():
        st_ = table.states[counts]
        rho = table.rho[counts]
        assert pwl_eval(rho, 0) == pwl_eval(d_slice, 0)
        assert pwl_eval(d_slice, 0) <= st_.g
        for i in range(9):
            t = Fraction(i, 8)
            assert pwl_eval(rho, t) == min(st_.g, t + pwl_eval(d_slice, t))


def test_root_slice_shape_large_horizon():
    """At the empty history the slice rises with slope = horizon near 0
    (nothing stops while the adversary likelihood is tiny) and its last
    slope gives the right derivative at z0 = 1.  The root value is pinned
    to the exact rational the recursion produced when first validated
    against the independent adversary-grid sandwich below — any algebra
    regression shows up as a changed constant."""
    table = backward_recursion(fig_model(21))
    root = table.rho[(0, 0)]
    assert root.segments[0][0] == 21
    assert root.segments[-1][0] == 3
    v = table.root_value()
    assert v == Fraction(
        572395568438128326367882613, 82710196290493011474609375
    )
    # minimax cost = equalized sample size + lambda-weighted error sum
    assert Fraction(68, 10) < v < Fraction(7)


# ---------------------------------------------------------------------------
# adversary-grid sandwich (independent brute force, tiny horizons)
# ---------------------------------------------------------------------------

def _sandwich(model, steps, slack):
    table = backward_recursion(model)
    exact = table.root_value()
    grid = simplex_grid(model.alphabet_size, steps)
    brute = brute_minimax_value(
        model.p1, model.p2, model.lam1, model.lam2, model.horizon,
        Fraction(1), Fraction(1), Fraction(1), 0, grid,
    )
    # a grid-restricted adversary can only do worse
    assert brute <= exact
    assert exact - brute <= slack


def test_sandwich_horizon_2():
    # per-level adversary snapping loses at most K * step * (slopes left)
    _sandwich(fig_model(2), steps=64, slack=Fraction(2 * 3, 64))


def test_sandwich_horizon_3():
    _sandwich(fig_model(3), steps=16, slack=Fraction(2 * 6, 16))


def test_sandwich_asymmetric_weights():
    model = bernoulli_model("0.7", "0.35", 12, 30, 2)
    _sandwich(model, steps=64, slack=Fraction(2 * 3, 64))


# ---------------------------------------------------------------------------
# truncation bound
# ---------------------------------------------------------------------------

def singleton_model(lam1=20, lam2=20, horizon=8):
    # supports overlap only in symbol 0
    return make_model(
        ["1/2", "1/2", "0"], ["1/2", "0", "1/2"], lam1, lam2, horizon
    )


def test_truncation_bound_pinned():
    model = singleton_model()
    # lam = 20, p* = 1/2: risk drop after k steps is 20 * 2^-(k+1),
    # >= 1 up to k = 3, < 1 at k = 4
    assert kwt_truncation_bound(model) == 4
    assert kwt_truncation_closed_form(model) == 4


def test_truncation_bound_clamps_to_one():
    model = singleton_model(lam1=1, lam2=1)
    assert kwt_truncation_bound(model) == 1
    assert kwt_truncation_closed_form(model) == 1


def test_truncation_bound_preconditions():
    with pytest.raises(ValueError):
        kwt_truncation_bound(fig_model(5))  # two common symbols
    with pytest.raises(ValueError):
        kwt_truncation_closed_form(singleton_model(lam1=10, lam2=20))


@settings(**SETTINGS)
@given(
    lam=st.integers(min_value=1, max_value=10**4),
    num=st.integers(min_value=1, max_value=15),
)
def test_truncation_scan_matches_closed_form(lam, num):
    p = Fraction(num, 16)
    model = make_model(
        [p, 1 - p, 0], [p, 0, 1 - p], lam, lam, 4
    )
    assert kwt_truncation_bound(model) == kwt_truncation_closed_form(model)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def parsed(table):
    """The records of the table's JSON text, as the reader receives them."""
    return json.loads(cost_table_to_json_str(table))


def test_json_round_trip():
    table = backward_recursion(fig_model(4))
    blob = parsed(table)
    assert all(rec.keys() == {"counts", "depth", "g", "rho", "z1", "z2"}
               for rec in blob["states"])
    back = cost_table_from_json(blob)
    assert back.model == table.model
    assert back.rho == table.rho
    assert back.d == table.d
    assert back.z0_star == table.z0_star
    assert back.pools == table.pools


def test_reader_checks_records_against_the_header():
    table = backward_recursion(fig_model(5))
    blob = parsed(table)
    blob["model"]["lambda1"] = blob["model"]["lambda2"] = "19/1"
    with pytest.raises(ExtractionError, match=r"state \(0, 0\): stored g"):
        cost_table_from_json(blob)
    blob = parsed(table)
    blob["states"][3]["z2"] = "1/7"
    with pytest.raises(ExtractionError, match=r"state \(0, 2\): stored z2"):
        cost_table_from_json(blob)
    # the same rational written unreduced is the same record
    blob = parsed(table)
    blob["states"][1]["z1"] = "8/10"  # (0, 1): z1 = 4/5
    assert cost_table_from_json(blob).rho == table.rho


def test_reader_names_an_edit_in_the_second_record_of_a_mirror_pair():
    # (0, 2) and (2, 0) share one slice object, and the record of (2, 0)
    # comes second: its rho is checked by value unless it equals the first
    table = backward_recursion(fig_model(5))
    assert table.rho[(2, 0)] is table.rho[(0, 2)]
    blob = parsed(table)
    first, second = blob["states"][3], blob["states"][5]
    assert (first["counts"], second["counts"]) == ([0, 2], [2, 0])
    assert second["rho"] == first["rho"]
    second["rho"]["segments"][0]["width"] = "65/625"  # 64/625
    with pytest.raises(ExtractionError, match=r"state \(2, 0\): stored rho "
                                         r"segment 0 width = 65/625"):
        cost_table_from_json(blob)
    # the same rational written unreduced is the same record
    blob = parsed(table)
    blob["states"][5]["rho"]["segments"][0]["width"] = "128/1250"
    assert cost_table_from_json(blob).rho == table.rho


@pytest.mark.parametrize("counts, edit, message", [
    # the second record of the mirror pair (0, 2), (2, 0)
    ((2, 0), lambda rec: rec.update(z1="1/26"),
     "state (2, 0): stored z1 = 1/26, but the model header gives 1/25"),
    ((3, 4), lambda rec: rec.update(depth=6),
     "state (3, 4): stored depth = 6 and rho slopes = [4, 2, 0], but the "
     "model header gives 7 and [4, 2, 0]"),
    ((4, 5), lambda rec: rec["rho"]["segments"][0].update(slope=3),
     "state (4, 5): stored depth = 9 and rho slopes = [3, 0], but the model "
     "header gives 9 and [2, 0]"),
    ((5, 5), lambda rec: rec["rho"]["segments"][1].update(
        width="9753338/9765625"),
     "state (5, 5): stored rho segment 1 width = 9753338/9765625, but the "
     "model header gives 9753337/9765625"),
], ids=["mirror-z1", "depth", "slope", "deep-width"])
def test_reader_names_each_edit_at_its_own_state(counts, edit, message):
    table = backward_recursion(fig_model(12))
    blob = parsed(table)
    edit(next(rec for rec in blob["states"]
              if tuple(rec["counts"]) == counts))
    with pytest.raises(ExtractionError) as got:
        cost_table_from_json(blob)
    assert str(got.value) == message
    # the same rationals written unreduced are the same records
    blob = parsed(table)
    for rec in blob["states"]:
        rec["z2"] = _unreduced(rec["z2"])
        rec["rho"]["value_at_zero"] = _unreduced(rec["rho"]["value_at_zero"])
        for seg in rec["rho"]["segments"]:
            seg["width"] = _unreduced(seg["width"])
    assert blob["states"][1]["z2"] == "2/10"  # (0, 1): z2 = 1/5
    # a form that only the field-by-field check reads
    blob["states"][1]["z1"] = "0.8"  # (0, 1): z1 = 4/5
    assert cost_table_from_json(blob).rho == table.rho


def _unreduced(text):
    num, den = text.split("/")
    return f"{2 * int(num)}/{2 * int(den)}"


def test_reader_takes_records_in_any_order():
    table = backward_recursion(fig_model(5))
    blob = parsed(table)
    blob["states"].reverse()  # the root last
    back = cost_table_from_json(blob)
    assert back.rho == table.rho and back.pools == table.pools


def test_reader_refuses_a_field_it_does_not_store():
    # a table that still stores the derivable fields must be written again
    blob = parsed(backward_recursion(fig_model(5)))
    blob["states"][0].update(d=None, split=None, z0_star=None)
    with pytest.raises(ValueError, match=r"state \(0, 0\): unknown field "
                                         r"'d', 'split', 'z0_star'"):
        cost_table_from_json(blob)


@pytest.mark.parametrize("horizon", [10**6, 4, 6])
def test_reader_rejects_an_edited_horizon_before_building_states(horizon):
    # a power table to depth 10**6 would take minutes and gigabytes
    blob = parsed(backward_recursion(fig_model(5)))
    blob["model"]["horizon"] = horizon
    with pytest.raises(ValueError, match="header gives horizon"):
        cost_table_from_json(blob)


@pytest.mark.parametrize("horizon", [10**6, 4, 6])
def test_reader_counts_the_records_of_a_written_text_before_solving(
        monkeypatch, horizon):
    # the text is in the writer's layout, with only its horizon edited
    blob = parsed(backward_recursion(fig_model(5)))
    blob["model"]["horizon"] = horizon

    def no_solve(_model):
        raise AssertionError("solved before the records were counted")

    monkeypatch.setattr(bellman, "backward_recursion", no_solve)
    with pytest.raises(ValueError, match="header gives horizon"):
        cost_table_from_json(_written(blob))


@pytest.mark.parametrize("horizon", [5.0, 2.5, "5", True])
def test_reader_takes_only_a_json_integer_horizon(horizon):
    # int() once read 2.5 as 2 and "5" as 5, and the model took True as 1
    blob = parsed(backward_recursion(fig_model(5)))
    blob["model"]["horizon"] = horizon
    with pytest.raises(ValueError, match=rf"horizon must be an integer >= 1, "
                                         rf"not {re.escape(repr(horizon))}"):
        cost_table_from_json(blob)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        make_model(["1/2", "1/2"], ["1/4", "3/4"], 1, 1, horizon)


def _float_slope(rec):
    seg = rec["rho"]["segments"][0]
    seg["slope"] = float(seg["slope"])


@pytest.mark.parametrize("counts, edit, error, message", [
    ((0, 1), lambda rec: rec.update(counts=[0.0, True]), ValueError,
     "counts [0.0, True] are not all integers"),
    ((1, 0), lambda rec: rec.update(depth=True), ExtractionError,
     "state (1, 0): stored depth = True is not an integer"),
    ((0, 2), _float_slope, ExtractionError,
     "state (0, 2): stored rho segment 0 slope = 3.0 is not an integer"),
    # the second record of the mirror pair (0, 2), (2, 0), whose rho would
    # otherwise equal the first's as parsed JSON and skip the slice check
    ((2, 0), _float_slope, ExtractionError,
     "state (2, 0): stored rho segment 0 slope = 3.0 is not an integer"),
], ids=["counts", "depth", "slope", "mirror-slope"])
def test_reader_takes_only_json_integers_where_the_writer_stores_them(
        counts, edit, error, message):
    # a float or a bool equal to the integer once loaded, and `verify`
    # passed the table
    blob = parsed(backward_recursion(fig_model(5)))
    edit(next(rec for rec in blob["states"]
              if tuple(rec["counts"]) == counts))
    with pytest.raises(error) as got:
        cost_table_from_json(blob)
    assert str(got.value) == message


def test_horizon_roots_takes_only_integer_horizons():
    # 2.5 once failed in range() and "3" in a comparison, both with a bare
    # TypeError, and True was read as horizon 1
    for horizon in (2.5, "3", True, 0):
        with pytest.raises(ValueError) as got:
            horizon_roots(fig_model(2), [3, horizon])
        assert str(got.value) == \
            f"horizons must be integers >= 1, not {horizon!r}"


def test_reader_rejects_missing_and_repeated_states():
    blob = parsed(backward_recursion(fig_model(5)))
    del blob["states"][3]
    with pytest.raises(ValueError, match="stores 20 states, but a model of "
                                         "horizon 5 has 21"):
        cost_table_from_json(blob)
    blob = parsed(backward_recursion(fig_model(5)))
    blob["states"][3] = blob["states"][2]
    with pytest.raises(ValueError, match=r"counts \(1, 0\) are stored twice"):
        cost_table_from_json(blob)


def _written(blob) -> str:
    """A parsed table in the writer's layout: `design`'s bytes, unless an
    edit changed a number."""
    return json.dumps(blob, sort_keys=True, indent=1) + "\n"


def test_reader_reports_json_nested_too_deeply():
    # the parser's RecursionError once escaped the reader; this text holds
    # every record, so only the parse after the compare meets the nesting
    text = cost_table_to_json_str(backward_recursion(fig_model(3)))
    deep = text[:-len("\n ]\n}")] + ",\n  " + "[" * 100_000 + "\n ]\n}"
    for bad in (deep, "[" * 100_000):
        with pytest.raises(ValueError, match="the JSON is nested too deeply"):
            cost_table_from_json(bad)


def test_json_bytes_stable():
    s1 = cost_table_to_json_str(backward_recursion(fig_model(4)))
    s2 = cost_table_to_json_str(backward_recursion(fig_model(4)))
    assert s1 == s2
    assert '"16/25"' in s1  # rationals rendered as num/den strings


# ---------------------------------------------------------------------------
# structural properties on random small models
# ---------------------------------------------------------------------------

thetas = st.fractions(
    min_value=Fraction(1, 16), max_value=Fraction(15, 16), max_denominator=16
)


@settings(**SETTINGS)
@given(
    t1=thetas,
    t2=thetas,
    lam=st.integers(min_value=1, max_value=100),
    horizon=st.integers(min_value=1, max_value=4),
)
def test_recursion_invariants(t1, t2, lam, horizon):
    if t1 == t2:
        return
    model = bernoulli_model(t1, t2, lam, lam, horizon)
    table = backward_recursion(model)
    for counts, rho in table.rho.items():
        st_ = table.states[counts]
        depth = sum(counts)
        # stopping is always available: rho <= g everywhere
        assert rho.value_at_upper <= st_.g
        # slope cannot exceed the remaining horizon (each extra unit of
        # adversary likelihood buys at most one sample per remaining step)
        if rho.segments:
            assert rho.segments[0][0] <= model.horizon - depth
        zs = table.z0_star.get(counts)
        if zs is not None:
            assert 0 <= zs <= 1
            assert pwl_eval(rho, zs) <= st_.g


# ---------------------------------------------------------------------------
# the integer recursion against the Fraction oracle, byte for byte
# ---------------------------------------------------------------------------

pmf_weights = st.lists(st.integers(min_value=0, max_value=6), min_size=3,
                       max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    w1=pmf_weights,
    w2=pmf_weights,
    lam1=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    lam2=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    horizon=st.integers(min_value=1, max_value=8),
)
def test_cost_table_text_matches_fraction_recursion(k, w1, w2, lam1, lam2,
                                                     horizon):
    w1, w2 = w1[:k], w2[:k]
    if sum(w1) == 0 or sum(w2) == 0:
        return
    p1 = [Fraction(w, sum(w1)) for w in w1]
    p2 = [Fraction(w, sum(w2)) for w in w2]
    if p1 == p2 or (k == 3 and horizon > 6):
        return
    if lam1 == lam2:
        lam2 += Fraction(1, 3)
    model = make_model(p1, p2, lam1, lam2, horizon)
    text = _assert_matches_fraction_recursion(model)
    assert cost_table_to_json_str(
        cost_table_from_json(json.loads(text))) == text


def test_cost_table_text_matches_fraction_recursion_on_the_workloads():
    for model in (
        fig_model(9),
        bernoulli_model("0.9", "0.1", 3, 3, 16),
        bernoulli_model("0.7", "0.4", "7/3", 5, 11),
        make_model(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], 20, 20, 6),
    ):
        _assert_matches_fraction_recursion(model)


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    w1=pmf_weights,
    w2=pmf_weights,
    mirror=st.booleans(),
    lam1=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    lam2=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    horizon=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_a_tables_text_reads_as_the_table_parsed(k, w1, w2, mirror, lam1,
                                                 lam2, horizon, data):
    """The text `design` writes is compared with the solve's own text, any
    other text is parsed and read by value: both give the parsed table's
    solve, and an edit raises the same error in either form."""
    w1, w2 = w1[:k], w2[:k]
    assume(sum(w1) > 0)
    p1 = [Fraction(w, sum(w1)) for w in w1]
    if mirror:  # p2 = p1 reversed, with equal weights
        p2, lam2 = p1[::-1], lam1
    else:
        assume(sum(w2) > 0)
        p2 = [Fraction(w, sum(w2)) for w in w2]
    assume(p1 != p2)
    table = backward_recursion(make_model(p1, p2, lam1, lam2, horizon))
    text = cost_table_to_json_str(table) + "\n"
    blob = json.loads(text)
    assert _written(blob) == text
    read, back = cost_table_from_json(text), cost_table_from_json(blob)
    for name in ("states", "rho", "z0_star", "pools", "twins"):
        assert getattr(read, name) == getattr(back, name) == getattr(table, name)
    assert cost_table_from_json(json.dumps(blob)).rho == table.rho
    # one stored rational, unreduced or one larger, in the writer's layout
    rec = data.draw(st.sampled_from(blob["states"]))
    holder, key = data.draw(st.sampled_from(
        [(rec, "z1"), (rec, "z2"), (rec, "g"), (rec["rho"], "value_at_zero"),
         (rec["rho"], "domain_upper")]
        + [(seg, "width") for seg in rec["rho"]["segments"]]))
    num, den = map(int, holder[key].split("/"))
    holder[key] = f"{2 * num}/{2 * den}"
    assert cost_table_from_json(_written(blob)).rho == table.rho
    holder[key] = f"{num + 1}/{den}"
    with pytest.raises(ExtractionError) as by_value:
        cost_table_from_json(blob)
    with pytest.raises(ExtractionError) as by_text:
        cost_table_from_json(_written(blob))
    assert str(by_text.value) == str(by_value.value)


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([2, 3, 4]),
    weights=st.lists(st.integers(min_value=0, max_value=6), min_size=4,
                     max_size=4),
    order=st.permutations(range(4)),
    pairs=st.integers(min_value=1, max_value=2),
    lam=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    horizon=st.integers(min_value=1, max_value=6),
)
@example(k=2, weights=[1, 4, 0, 0], order=[0, 1, 2, 3], pairs=1, lam=20,
         horizon=6)
@example(k=4, weights=[2, 0, 1, 1], order=[3, 0, 2, 1], pairs=2,
         lam=Fraction(7, 2), horizon=4)
def test_mirror_symmetric_tables_match_fraction_recursion(k, weights, order,
                                                          pairs, lam, horizon):
    """p2 = p1 o sigma with equal weights: the recursion solves one state
    of each mirror pair, and the oracle, which solves every state, checks
    the shared slices and the permuted merge pools."""
    w = weights[:k]
    if sum(w) == 0 or (k == 4 and horizon > 4):
        return
    order = [x for x in order if x < k]
    sigma = list(range(k))
    for a, b in zip(order[0:2 * pairs:2], order[1:2 * pairs:2]):
        sigma[a], sigma[b] = b, a
    p1 = [Fraction(v, sum(w)) for v in w]
    p2 = [p1[sigma[x]] for x in range(k)]
    if p1 == p2:
        return
    model = make_model(p1, p2, lam, lam, horizon)
    found = _mirror(model)
    assert found is not None
    assert all(model.p2[x] == model.p1[found[x]] for x in range(k))
    assert all(found[found[x]] == x for x in range(k))
    text = _assert_matches_fraction_recursion(model)
    assert cost_table_to_json_str(
        cost_table_from_json(json.loads(text))) == text


def test_mirror_pairs_symbols_or_finds_none():
    assert _mirror(fig_model(3)) == (1, 0)
    tern = make_model(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], 20, 20, 3)
    assert _mirror(tern) == (2, 1, 0)
    # a symbol with p1x > p2x before its partner, and a fixed symbol
    assert _mirror(make_model(["1/2", "1/4", "1/4"], ["1/4", "1/2", "1/4"],
                              1, 1, 3)) == (1, 0, 2)
    # unequal weights; p2 = p1 o a 3-cycle, which is no involution
    assert _mirror(bernoulli_model("0.8", "0.2", 20, 19, 3)) is None
    assert _mirror(make_model(["1/2", "1/3", "1/6"], ["1/3", "1/6", "1/2"],
                              1, 1, 3)) is None
    assert _mirror(bernoulli_model("0.7", "0.4", 5, 5, 3)) is None


@pytest.mark.parametrize("model, merges", [
    # one merge per mirror pair of internal states: ref15, fast40, tern10
    (fig_model(15), 64),
    (bernoulli_model("0.9", "0.1", 3, 3, 40), 420),
    (make_model(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], 20, 20, 10),
     125),
    # no mirror: every one of the 66 internal states is merged
    (bernoulli_model("0.7", "0.4", "7/3", 5, 11), 66),
])
def test_recursion_merges_each_mirror_pair_once(monkeypatch, model, merges):
    calls = []
    merge_step = bellman._merge_step
    monkeypatch.setattr(bellman, "_merge_step",
                        lambda *args: calls.append(1) or merge_step(*args))
    table = backward_recursion(model)
    assert len(calls) == len(table.pools) == merges
    internal = sum(len(build_states(model)[n]) for n in range(model.horizon))
    assert len(table.d) == internal


@pytest.mark.parametrize("model", [
    fig_model(5),
    bernoulli_model("0.7", "0.4", 20, 30, 6),
], ids=["mirror", "asymmetric"])
def test_a_table_pickles(model):
    # a table holds only the dicts its solve filled in, so it can be sent
    # to a worker process
    table = backward_recursion(model)
    back = pickle.loads(pickle.dumps(table))
    for name in ("model", "states", "rho", "z0_star", "pools", "twins",
                 "sigma", "d"):
        assert getattr(back, name) == getattr(table, name), name
    assert bool(table.twins) == (model.lam1 == model.lam2)
    d = back.d  # an internal mirror pair shares one d within a read
    assert all(d[counts] is d[twin] for counts, twin in back.twins.items()
               if counts in d)


def test_a_table_and_its_views_are_freed_without_the_cycle_collector():
    # views that held their table would keep every solve alive until a
    # cyclic collection, which a long run pays at unpredictable points
    table = backward_recursion(fig_model(5))
    assert all(table.d.values())
    ref = weakref.ref(table)
    gc.disable()
    try:
        del table
        assert ref() is None
    finally:
        gc.enable()


def _assert_matches_fraction_recursion(model) -> str:
    """The table's text, and the continuation slices, merge pools and
    thresholds it does not store, equal the Fraction recursion's.  A
    mirror state, which keeps no pool, is compared through its partner's
    with the operands mapped through sigma and re-sorted."""
    table = backward_recursion(model)
    text = cost_table_to_json_str(table)
    args = (model.p1, model.p2, model.lam1, model.lam2, model.horizon)
    assert text == frac_recursion_json(*args)
    assert text == cost_table_text(table)
    solved = frac_recursion(*args)
    internal = {c for c, st in solved.items() if st.d is not None}
    d = table.d
    assert d.keys() == table.z0_star.keys() == internal
    assert table.pools.keys() == internal - table.twins.keys()
    for counts in internal:
        want = solved[counts]
        d_slice = d[counts]
        assert (d_slice.value_at_zero, d_slice.segments,
                d_slice.domain_upper) == (want.d.value_at_zero,
                                          want.d.segments,
                                          want.d.domain_upper)
        twin = table.twins.get(counts)
        scale, pool = table.pools[counts if twin is None else twin]
        entries = sorted(
            ((op if twin is None else table.sigma[op], s, Fraction(w, scale))
             for s, op, w in pool), key=lambda e: (-e[1], e[0]))
        assert entries == list(want.split.entries)
        assert table.z0_star[counts] == want.z0_star
    return text


# ---------------------------------------------------------------------------
# root slices of many horizons from one class recursion
# ---------------------------------------------------------------------------

def _recursion_roots(model, horizons):
    """The root slice of ``backward_recursion`` at each horizon."""
    root = (0,) * model.alphabet_size
    return {n: backward_recursion(make_model(model.p1, model.p2, model.lam1,
                                             model.lam2, n)).rho[root]
            for n in horizons}


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    w1=pmf_weights,
    w2=pmf_weights,
    lam1=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    lam2=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    horizons=st.sets(st.integers(min_value=1, max_value=8), min_size=1,
                     max_size=4),
)
# lam1 < 1, where the classes are kept on [0, 1]; zero probabilities
@example(k=2, w1=[1, 1, 0], w2=[3, 1, 0], lam1=Fraction(1, 5),
         lam2=Fraction(2, 3), horizons={1, 2, 5, 8})
@example(k=3, w1=[0, 1, 1], w2=[1, 0, 2], lam1=Fraction(7, 2),
         lam2=Fraction(1, 2), horizons={1, 3, 6})
def test_horizon_roots_equal_each_horizons_recursion(k, w1, w2, lam1, lam2,
                                                     horizons):
    w1, w2 = w1[:k], w2[:k]
    if sum(w1) == 0 or sum(w2) == 0:
        return
    p1 = [Fraction(w, sum(w1)) for w in w1]
    p2 = [Fraction(w, sum(w2)) for w in w2]
    if p1 == p2:
        return
    model = make_model(p1, p2, lam1, lam2, 1)
    assert horizon_roots(model, horizons) == _recursion_roots(model, horizons)


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.sampled_from([(1, 0), (2, 1, 0), (1, 0, 2), (0, 2, 1)]),
    w=pmf_weights,
    lam=st.fractions(min_value=Fraction(1, 5), max_value=Fraction(4, 5),
                     max_denominator=9)
    | st.fractions(min_value=1, max_value=40, max_denominator=9),
    horizons=st.sets(st.integers(min_value=1, max_value=8), min_size=1,
                     max_size=4),
)
# lam < 1, where every class lives on [0, 1]; a zero entry; a fixed symbol
@example(sigma=(1, 0), w=[4, 1, 0], lam=Fraction(1, 2), horizons={1, 4, 9})
@example(sigma=(2, 1, 0), w=[3, 1, 0], lam=Fraction(3), horizons={1, 2, 6})
@example(sigma=(1, 0, 2), w=[2, 1, 3], lam=Fraction(2, 3), horizons={3, 7})
def test_horizon_roots_equal_each_horizons_recursion_on_mirror_models(
        sigma, w, lam, horizons):
    """The mirror-symmetric models, where the sweep merges only the classes
    with l <= 1: lam1 == lam2 and p2 = p1 o sigma for an involution
    sigma."""
    w = w[:len(sigma)]
    assume(sum(w) > 0)
    p1 = [Fraction(v, sum(w)) for v in w]
    p2 = [p1[y] for y in sigma]
    assume(p1 != p2)
    model = make_model(p1, p2, lam, lam, 1)
    assert _mirror(model) is not None
    assert horizon_roots(model, horizons) == _recursion_roots(model, horizons)


@pytest.mark.parametrize("model, horizons, merges", [
    # the sweeps of `compare` on fast40 and ref15: one merge per class with
    # l <= 1 (780 and 120 classes in all)
    (bernoulli_model("0.9", "0.1", 3, 3, 40), range(3, 40, 2), 400),
    (fig_model(15), range(3, 16, 2), 64),
    # no mirror: every class is merged
    (bernoulli_model("0.7", "0.4", 20, 30, 15), range(3, 16, 2), 371),
])
def test_horizon_roots_merges_each_mirror_class_once(monkeypatch, model,
                                                     horizons, merges):
    calls = []
    merge_step = bellman._merge_step
    monkeypatch.setattr(bellman, "_merge_step",
                        lambda *args: calls.append(1) or merge_step(*args))
    horizon_roots(model, horizons)
    assert len(calls) == merges


@pytest.mark.parametrize("model, horizons", [
    # the sweeps of `compare` on ref15 and fast40
    (fig_model(15), range(3, 16, 2)),
    (bernoulli_model("0.9", "0.1", 3, 3, 40), range(3, 40, 2)),
    (make_model(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], 20, 20, 6),
     range(1, 7)),
])
def test_horizon_roots_equal_the_recursions_on_the_workloads(model, horizons):
    roots = horizon_roots(model, horizons)
    assert list(roots) == list(horizons)
    assert roots == _recursion_roots(model, horizons)


def test_horizon_roots_ignores_the_models_horizon_and_checks_its_own():
    assert horizon_roots(fig_model(2), [5]) == horizon_roots(fig_model(9), [5])
    assert horizon_roots(fig_model(2), []) == {}
    with pytest.raises(ValueError, match="horizons must be integers >= 1"):
        horizon_roots(fig_model(2), [0, 3])


# ---------------------------------------------------------------------------
# the paper's nontruncation claim, in numbers
# ---------------------------------------------------------------------------

def test_reference_value_keeps_falling_with_the_horizon():
    """At lambda = 20 the minimax cost of the reference model falls
    strictly at every horizon from 9 to 45 in steps of 4: a test allowed to
    run longer is strictly better, so no truncation is optimal.  In
    particular V_41 > V_45, so every test that stops by sample 41 is beaten
    by one that stops by sample 45."""
    values = [backward_recursion(fig_model(h)).root_value()
              for h in range(9, 46, 4)]
    assert len(values) == 10
    assert all(a > b for a, b in zip(values, values[1:]))
    assert abs(values[-1] - Fraction("6.9204854463")) < Fraction(1, 10**10)
    gaps = [a - b for a, b in zip(values, values[1:])]
    # the gap shrinks geometrically but never closes
    assert all(g > 0 for g in gaps) and all(a > b for a, b in zip(gaps, gaps[1:]))


def test_small_lambda_design_is_truncated():
    """At lambda = 5 the value is exactly 3 from horizon 9 on: a design
    with a hard sample budget is already optimal there."""
    for horizon in (9, 13, 21):
        model = bernoulli_model("0.8", "0.2", 5, 5, horizon)
        assert backward_recursion(model).root_value() == 3
