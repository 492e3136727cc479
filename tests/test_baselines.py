"""Baseline tests: SPRT random-walk analysis, fixed-sample binomial test,
and the backward-induction Kiefer-Weiss table.

Independent cross-checks used here:

* gambler's ruin closed forms for the SPRT chain with boundaries -B..B
  started at 0 (shift to 0..2B, x = B, r = (1-theta)/theta):
      P(hit top)  = (1 - r^x) / (1 - r^{2B})        (theta != 1/2)
      E[absorb]   = x/(q-p) - (2B/(q-p)) * P(hit top)
  and x * (2B - x), x / 2B in the symmetric case.
* brute-force enumeration of every length-<=8 outcome sequence for the
  truncated tests (exact Fraction arithmetic end to end).
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npkw.baselines import (
    FsstDesign,
    KwtDesign,
    SprtDesign,
    curves_to_csv,
    fsst_analyze,
    fsst_design,
    kwt_analyze,
    kwt_design,
    kwt_matched,
    sample_size_curve,
    sprt_analyze,
    sprt_design,
    sprt_errors,
    _error_sum_floor,
    _fsst_p_h1,
    _kwt_pass,
    _kwt_tables,
)
from npkw import baselines
from npkw.bellman import bernoulli_model, make_model

from oracles import (
    fsst_p_h1_fraction,
    kwt_analyze_fraction,
    kwt_fraction_induction,
    kwt_matched_per_lambda,
    kwt_pass_per_state,
    sprt_first_step_fraction,
)

FIG = bernoulli_model("0.8", "0.2", lam1=20, lam2=20, horizon=21)
HALF = (F(1, 2), F(1, 2))


def ruin_top_prob(theta: F, b: int) -> F:
    if theta == F(1, 2):
        return F(1, 2)
    r = (1 - theta) / theta
    return (1 - r**b) / (1 - r ** (2 * b))


def ruin_mean_time(theta: F, b: int) -> F:
    if theta == F(1, 2):
        return F(b * b)
    qmp = 1 - 2 * theta  # q - p, the downward drift
    return F(b, 1) / qmp - F(2 * b, 1) / qmp * ruin_top_prob(theta, b)


# ---------------------------------------------------------------------------
# SPRT
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [F(1, 5), F(1, 3), F(1, 2), F(4, 5), F(9, 10)])
@pytest.mark.parametrize("b", [1, 2, 3, 5])
def test_sprt_matches_gamblers_ruin(theta, b):
    an = sprt_analyze(SprtDesign(-b, b), theta)
    assert an.p_decide_h1 == ruin_top_prob(theta, b)
    assert an.p_decide_h2 == 1 - ruin_top_prob(theta, b)
    assert an.expected_sample_size == ruin_mean_time(theta, b)


@given(
    theta=st.fractions(min_value="1/10", max_value="9/10", max_denominator=30),
    b=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_sprt_ruin_property(theta, b):
    an = sprt_analyze(SprtDesign(-b, b), theta)
    assert an.p_decide_h1 == ruin_top_prob(theta, b)
    assert an.expected_sample_size == ruin_mean_time(theta, b)


def test_sprt_tail_exact_halving():
    # B = 2, theta = 1/2: surviving mass halves every second step.
    tail = sprt_analyze(SprtDesign(-2, 2), F(1, 2)).tail
    assert tail(0) == 1
    for k in range(6):
        assert tail(2 * k) == F(1, 2**k)
        assert tail(2 * k + 1) == F(1, 2**k)
    # ... and the tails sum to the closed-form mean (up to the exact
    # geometric remainder of the truncated series).
    partial = sum((tail(2 * k) + tail(2 * k + 1) for k in range(80)), F(0))
    assert partial == 4 - F(1, 2**78)


def test_sprt_tail_monotone_and_single_step():
    tail = sprt_analyze(SprtDesign(-1, 1), F(3, 10)).tail
    assert tail(0) == 1 and tail(1) == 0 and tail(7) == 0
    t = sprt_analyze(SprtDesign(-3, 4), F(2, 5)).tail
    assert all(t(n + 1) <= t(n) for n in range(30))


def test_sprt_design_trivial_targets():
    rep = sprt_design(FIG, "0.4")
    assert rep.design == SprtDesign(-1, 1)
    assert rep.alpha1 == rep.alpha2 == F(1, 5)
    # minimality plateau: anything >= the single-step error keeps B = 1
    assert sprt_design(FIG, F(1, 5)).design.upper == 1
    # a target of 1/2 or more: the float bound on b is negative, and b = 1
    # has both errors at 49/100
    near_even = bernoulli_model("0.51", "0.49", 1, 1, 3)
    for target in ("9/10", "1/2", "0.99"):
        rep = sprt_design(near_even, target)
        assert rep.design == SprtDesign(-1, 1)
        assert rep.alpha1 == rep.alpha2 == F(49, 100)


def test_sprt_design_small_alpha():
    rep = sprt_design(FIG, F(1, 10_000))
    assert rep.design == SprtDesign(-7, 7)
    assert rep.alpha1 == rep.alpha2 == F(1, 4**7 + 1)
    # one notch tighter fails the target, confirming minimality
    worse = sprt_errors(SprtDesign(-6, 6), FIG)
    assert max(worse) > F(1, 10_000)


def test_sprt_design_asymmetric_hypotheses():
    # theta pair not mirrored around 1/2: the two errors genuinely differ
    model = bernoulli_model("0.8", "0.3", lam1=5, lam2=5, horizon=4)
    rep = sprt_design(model, "0.05")
    assert rep.alpha1 != rep.alpha2
    assert max(rep.alpha1, rep.alpha2) <= F(1, 20)
    assert max(sprt_errors(SprtDesign(rep.design.lower + 1,
                                      rep.design.upper - 1), model)) > F(1, 20)


def test_sprt_exact_error_numbers_at_common_targets():
    # The 1e-4 design really is this sharp; the often-quoted softer numbers
    # (tail about 0.05 at 65 samples, four extra samples at theta = 1/2)
    # belong to the 1e-3 design instead.  Pin both so the distinction is
    # visible and stays put.
    strict = sprt_design(FIG, F(1, 10_000)).design
    loose = sprt_design(FIG, F(1, 1_000)).design
    assert (strict.upper, loose.upper) == (7, 5)
    an_strict = sprt_analyze(strict, F(1, 2))
    an_loose = sprt_analyze(loose, F(1, 2))
    assert an_strict.expected_sample_size == 49
    assert an_loose.expected_sample_size == 25
    assert abs(an_strict.tail(65) - F("0.2403")) < F(1, 10_000)
    assert abs(an_loose.tail(65) - F("0.0472")) < F(1, 10_000)


@pytest.mark.parametrize("n, k", [(0, 1), (3, -1), (3, 5)])
def test_fsst_design_rejects_bad_thresholds(n, k):
    with pytest.raises(ValueError, match="need n >= 1"):
        FsstDesign(n, k)
    with pytest.raises(ValueError, match="need n >= 1"):
        FsstDesign(n=n, k=k)


def test_sprt_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SprtDesign(1, 2)
    with pytest.raises(ValueError):
        SprtDesign(-2, 0)
    with pytest.raises(ValueError):
        sprt_analyze(SprtDesign(-1, 1), 1)
    trinomial = __import__("npkw.bellman", fromlist=["make_model"]).make_model(
        ["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], lam1=2, lam2=2, horizon=3
    )
    with pytest.raises(ValueError):
        sprt_design(trinomial, "0.1")


@given(
    theta=st.fractions(min_value="1/1000", max_value="999/1000",
                       max_denominator=1000),
    lower=st.integers(min_value=-12, max_value=-1),
    upper=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=80, deadline=None)
def test_sprt_integer_solve_matches_fraction_oracle(theta, lower, upper):
    design = SprtDesign(lower, upper)
    an = sprt_analyze(design, theta)
    hit = sprt_first_step_fraction(
        design, theta, lambda t: theta if t == upper - 1 else F(0))
    mean = sprt_first_step_fraction(design, theta, lambda t: F(1))
    assert an.p_decide_h1 == hit[0]
    assert an.p_decide_h2 == 1 - hit[0]
    assert an.expected_sample_size == mean[0]


def test_sprt_design_on_a_coin_not_symmetric_about_one_half():
    # T_n's errors at threshold b are r1**b / (1 + r1**b) and
    # 1 / (1 + r2**b) with r = (1 - theta) / theta; for 0.7 vs 0.4 the
    # first b meeting 1e-4 is 23, beyond the per-sample likelihood-ratio
    # cap (21) the search once used
    model = bernoulli_model("0.7", "0.4", lam1=20, lam2=20, horizon=15)
    r1, r2 = F(3, 7), F(3, 2)
    rep = sprt_design(model, F(1, 10_000))
    assert rep.design == SprtDesign(-23, 23)
    assert rep.alpha1 == r1**23 / (1 + r1**23)
    assert rep.alpha2 == 1 / (1 + r2**23)
    assert max(sprt_errors(SprtDesign(-22, 22), model)) > F(1, 10_000)


@pytest.mark.parametrize("theta1, theta2", [
    ("0.8", "0.6"), ("0.2", "0.8"), ("0.4", "0.1"), ("0.5", "0.2"),
    ("0.8", "0.5"),
])
def test_sprt_design_needs_theta2_below_one_half_below_theta1(theta1, theta2):
    model = bernoulli_model(theta1, theta2, lam1=20, lam2=20, horizon=15)
    with pytest.raises(ValueError, match="theta2 < 1/2 < theta1"):
        sprt_design(model, F(1, 10_000))


@pytest.mark.parametrize("theta1, theta2", [
    ("0.8", "0.6"), ("0.2", "0.8"), ("0.4", "0.1"), ("0.5", "0.2"),
    ("0.8", "0.5"),
])
def test_fsst_design_needs_theta2_below_one_half_below_theta1(
        theta1, theta2, monkeypatch):
    # the check comes before any tail: on 0.8 vs 0.6 the search used to
    # walk n toward 10,000 with ever larger tails
    def no_tail(*_args):
        raise AssertionError("fsst_design computed a tail")

    monkeypatch.setattr(baselines, "fsst_analyze", no_tail)
    model = bernoulli_model(theta1, theta2, lam1=20, lam2=20, horizon=15)
    with pytest.raises(ValueError, match="theta2 < 1/2 < theta1"):
        fsst_design(model, F(1, 10_000))


# ---------------------------------------------------------------------------
# FSST
# ---------------------------------------------------------------------------

def test_fsst_majority_of_three():
    assert fsst_analyze(FsstDesign(3, 2), FIG) == (F(13, 125), F(13, 125))


def test_fsst_degenerate_thresholds():
    assert fsst_analyze(FsstDesign(1, 1), FIG) == (F(1, 5), F(1, 5))
    assert fsst_analyze(FsstDesign(3, 0), FIG) == (F(0), F(1))
    assert fsst_analyze(FsstDesign(3, 4), FIG) == (F(1), F(0))


def test_fsst_even_n_tie_randomizes():
    # n = 2, k = 2: the count 1 is split by a fair coin.
    a1, a2 = fsst_analyze(FsstDesign(2, 2), FIG)
    assert a1 == a2 == F(1, 25) + F(8, 25) / 2


def brute_fsst(design: FsstDesign, theta: F) -> tuple[F, F]:
    """P(decide H2), P(decide H1) by full sequence enumeration."""
    p_h1 = F(0)
    for word in range(2**design.n):
        successes = bin(word).count("1")
        prob = theta**successes * (1 - theta) ** (design.n - successes)
        if successes >= design.k:
            p_h1 += prob
        elif design.tie_count is not None and successes == design.tie_count:
            p_h1 += prob / 2
    return 1 - p_h1, p_h1


@given(
    n=st.integers(min_value=1, max_value=8),
    data=st.data(),
    theta=st.fractions(min_value="1/10", max_value="9/10", max_denominator=20),
)
@settings(max_examples=40, deadline=None)
def test_fsst_brute_force_equivalence(n, data, theta):
    assume(theta != F(1, 2))  # hypotheses must be distinguishable
    k = data.draw(st.integers(min_value=0, max_value=n + 1))
    design = FsstDesign(n, k)
    model = bernoulli_model(theta, 1 - theta, lam1=2, lam2=2, horizon=2)
    a1, a2 = fsst_analyze(design, model)
    wrong2, right1 = brute_fsst(design, theta)
    assert a1 == wrong2          # data from theta1 = theta, H2 is the error
    wrongs = brute_fsst(design, 1 - theta)
    assert a2 == wrongs[1]       # data from theta2, H1 is the error
    # decision probabilities are a partition: errors + correct sum to one
    assert a1 + right1 == 1


@given(
    n=st.integers(min_value=1, max_value=40),
    data=st.data(),
    theta=st.fractions(min_value="1/1000", max_value="999/1000",
                       max_denominator=1000),
)
@settings(max_examples=80, deadline=None)
def test_fsst_integer_tail_matches_fraction_oracle(n, data, theta):
    k = data.draw(st.sampled_from([n // 2 + 1, (n + 2) // 2])
                  | st.integers(min_value=0, max_value=n + 1))
    design = FsstDesign(n, k)
    assert _fsst_p_h1(design, theta) == fsst_p_h1_fraction(design, theta)


def test_fsst_integer_tail_matches_fraction_oracle_on_even_ties():
    for n in (2, 10, 40):
        design = FsstDesign(n, n // 2 + 1)
        assert design.tie_count == n // 2
        for theta in (F(1, 2), F(4, 5), F(3, 997)):
            assert _fsst_p_h1(design, theta) == fsst_p_h1_fraction(design, theta)


def test_fsst_design_targets():
    assert fsst_design(FIG, "0.104") == FsstDesign(3, 2)
    assert fsst_design(FIG, "0.5") == FsstDesign(1, 1)
    assert fsst_design(FIG, "0.103") == FsstDesign(5, 3)


def test_fsst_design_hits_the_reported_error_level():
    design = fsst_design(FIG, F(1, 10_000))
    assert design == FsstDesign(31, 16)
    a1, a2 = fsst_analyze(design, FIG)
    assert a1 == a2
    assert abs(a1 - F("0.000092")) < F(5, 1_000_000)


# ---------------------------------------------------------------------------
# KWT
# ---------------------------------------------------------------------------

def test_kwt_small_lambda_stops_immediately():
    model = bernoulli_model("0.8", "0.2", lam1="1/10", lam2="1/10", horizon=5)
    design = kwt_design(model, HALF)
    assert design.continue_bounds == ()
    assert design.truncation_level == 0
    assert design.actions[(0, 0)] == "randomized"


def test_kwt_fig_model_table():
    design = kwt_design(FIG, HALF)
    assert design.continue_bounds == (
        (0, 0, 0), (1, -1, 1), (2, 0, 0), (3, -1, 1),
        (4, 0, 0), (5, -1, 1), (6, 0, 0),
    )
    assert design.truncation_level == 7
    e, p1, p2 = kwt_analyze(design, FIG, "0.5")
    assert e == F(29, 8)
    assert p1 == p2 == F(1, 2)
    # symmetric design: swapping theta for 1-theta mirrors the decisions
    e8, h18, h28 = kwt_analyze(design, FIG, "0.8")
    e2, h12, h22 = kwt_analyze(design, FIG, "0.2")
    assert e8 == e2 and h18 == h22 and h28 == h12


def brute_kwt(design: KwtDesign, theta: F) -> tuple[F, F, F]:
    e = F(0)
    decided = {"H1": F(0), "H2": F(0)}

    def walk(n: int, m: int, prob: F) -> None:
        nonlocal e
        act = design.actions[(n, m)]
        if act == "continue":
            e += prob
            walk(n + 1, m + 1, prob * theta)
            walk(n + 1, m, prob * (1 - theta))
        elif act == "randomized":
            decided["H1"] += prob / 2
            decided["H2"] += prob / 2
        else:
            decided[act] += prob

    walk(0, 0, F(1))
    return e, decided["H1"], decided["H2"]


@pytest.mark.parametrize("lam", ["1/2", 3, 20, 500])
def test_kwt_brute_force_equivalence(lam):
    model = bernoulli_model("0.8", "0.2", lam1=lam, lam2=lam, horizon=8)
    design = kwt_design(model, HALF)
    for theta in (F(1, 2), F(4, 5), F(1, 5), F(3, 10), F(17, 23)):
        assert brute_kwt(design, theta) == kwt_analyze(design, model, theta)


def test_kwt_asymmetric_p0_still_partitions():
    model = bernoulli_model("0.8", "0.2", lam1=12, lam2=7, horizon=6)
    design = kwt_design(model, (F(1, 3), F(2, 3)))
    e, p1, p2 = kwt_analyze(design, model, F(2, 7))
    assert p1 + p2 == 1
    assert 0 <= e <= 6


def test_kwt_matched_error_shape_and_dominance():
    sprt = sprt_design(FIG, F(1, 10_000))
    design, model = kwt_matched(FIG, sprt.alpha1, sprt.alpha2)
    assert (model.lam1, model.lam2, model.horizon) == (2**15, 2**15, 80)
    h2 = kwt_analyze(design, model, F(4, 5))[2]
    h1 = kwt_analyze(design, model, F(1, 5))[1]
    assert h2 <= sprt.alpha1 and h1 <= sprt.alpha2

    # thresholds intersect: the table truncates itself well before the cap
    assert design.truncation_level == 39 < design.horizon
    # symmetric region
    assert all(lo == -hi for _, lo, hi in design.continue_bounds)
    # where the boundary first binds it sits strictly outside the SPRT band
    binding = [(n, hi) for n, _, hi in design.continue_bounds if hi < n]
    assert binding[0][1] > sprt.design.upper
    # the statistic keeps parity of n, so compare the binding boundary
    # within each parity class: nonincreasing until the region closes
    for parity in (0, 1):
        run = [hi for n, hi in binding if n % 2 == parity]
        assert all(a >= b for a, b in zip(run, run[1:]))

    grid = [F(i, 20) for i in range(1, 20)]
    kwt_worst = max(kwt_analyze(design, model, th)[0] for th in grid)
    sprt_worst = max(
        sprt_analyze(sprt.design, th).expected_sample_size for th in grid
    )
    assert kwt_worst <= sprt_worst


@given(
    theta1=st.fractions(min_value="1/30", max_value="29/30", max_denominator=30),
    theta2=st.fractions(min_value="1/30", max_value="29/30", max_denominator=30),
    lam1=st.fractions(min_value="1/7", max_value=200, max_denominator=7),
    lam2=st.fractions(min_value="1/7", max_value=200, max_denominator=7),
    horizon=st.integers(min_value=1, max_value=30),
    p0_success=st.sampled_from(
        [F(0), F(1), F(1, 2), F(1, 3), F(3, 4), F(2, 9), F(11, 12)]),
)
@settings(max_examples=60, deadline=None)
def test_kwt_design_matches_fraction_oracle(theta1, theta2, lam1, lam2,
                                            horizon, p0_success):
    assume(theta1 != theta2)
    model = bernoulli_model(theta1, theta2, lam1=lam1, lam2=lam2,
                            horizon=horizon)
    p0 = (1 - p0_success, p0_success)
    design = kwt_design(model, p0)
    actions, bounds = kwt_fraction_induction(
        theta1, theta2, lam1, lam2, horizon, p0)
    assert design.actions == actions
    assert design.continue_bounds == bounds
    assert design.truncation_level == (bounds[-1][0] + 1 if bounds else 0)
    assert design.p0 == p0


@given(
    theta1=st.fractions(min_value="1/30", max_value="29/30", max_denominator=30),
    theta2=st.fractions(min_value="1/30", max_value="29/30", max_denominator=30),
    lam=st.fractions(min_value="1/7", max_value=500, max_denominator=7),
    horizon=st.integers(min_value=1, max_value=24),
    p0_success=st.sampled_from([F(1, 2), F(1, 3), F(3, 4), F(2, 9)]),
    theta=st.fractions(min_value="1/40", max_value="39/40", max_denominator=40),
)
@settings(max_examples=60, deadline=None)
def test_kwt_analyze_matches_fraction_oracle(theta1, theta2, lam, horizon,
                                             p0_success, theta):
    """Integer path counts over one scale give the Fraction push exactly,
    randomized ties included (equal lambdas with mirrored thetas tie)."""
    assume(theta1 != theta2)
    model = bernoulli_model(theta1, theta2, lam1=lam, lam2=lam,
                            horizon=horizon)
    design = kwt_design(model, (1 - p0_success, p0_success))
    assert kwt_analyze(design, model, theta) == kwt_analyze_fraction(design, theta)


@given(
    theta1=st.fractions(min_value="1/30", max_value="29/30", max_denominator=30),
    theta2=st.fractions(min_value="1/30", max_value="29/30", max_denominator=30),
    weights=st.lists(
        st.tuples(st.fractions(min_value="1/7", max_value=300, max_denominator=9),
                  st.fractions(min_value="1/7", max_value=300, max_denominator=9)),
        min_size=1, max_size=4),
    horizon=st.integers(min_value=1, max_value=24),
    p0_success=st.sampled_from([F(0), F(1, 2), F(1, 3), F(3, 4)]),
)
@settings(max_examples=50, deadline=None)
def test_kwt_pass_on_shared_tables_matches_fraction_oracle(
        theta1, theta2, weights, horizon, p0_success):
    """One set of lambda-free tables serves every weight pair, unequal
    rational weights included."""
    assume(theta1 != theta2 and weights[0][0] != weights[0][1])
    p0 = (1 - p0_success, p0_success)
    tables = _kwt_tables(theta1, theta2, p0, horizon)
    for lam1, lam2 in weights:
        design = _kwt_pass(tables, p0, lam1, lam2)
        actions, bounds = kwt_fraction_induction(
            theta1, theta2, lam1, lam2, horizon, p0)
        assert design.actions == actions
        assert design.continue_bounds == bounds
        model = bernoulli_model(theta1, theta2, lam1=lam1, lam2=lam2,
                                horizon=horizon)
        assert kwt_design(model, p0) == design


@given(
    theta1=st.fractions(min_value="1/30", max_value="29/30", max_denominator=30),
    theta2=st.fractions(min_value="1/30", max_value="29/30", max_denominator=30),
    weights=st.lists(
        st.tuples(st.integers(min_value=0, max_value=60),
                  st.fractions(min_value="1/9", max_value=9, max_denominator=9)),
        min_size=1, max_size=4),
    horizon=st.integers(min_value=1, max_value=40),
    p0_success=st.sampled_from([F(0), F(1), F(1, 2), F(1, 3), F(3, 4)]),
)
@settings(max_examples=50, deadline=None)
def test_kwt_pass_matches_the_per_state_pass_at_large_weights(
        theta1, theta2, weights, horizon, p0_success):
    """At weights 2**k * (1, r) the band of states that can continue spans
    most of the grid; the banded pass, its label runs kept per weight
    ratio on shared tables, equals the pass over every state."""
    assume(theta1 != theta2)
    p0 = (1 - p0_success, p0_success)
    tables = _kwt_tables(theta1, theta2, p0, horizon)
    for k, ratio in weights:
        lam1, lam2 = F(2**k), F(2**k) * ratio
        assert (_kwt_pass(tables, p0, lam1, lam2)
                == kwt_pass_per_state(tables, p0, lam1, lam2))


@given(
    coins=st.sampled_from([(0, F(1, 2)), (1, F(1, 3)), (0, 1), (1, 0),
                           (F(2, 5), 1), (F(3, 4), 0)]),
    lam1=st.fractions(min_value="1/7", max_value=10**6, max_denominator=7),
    lam2=st.fractions(min_value="1/7", max_value=10**6, max_denominator=7),
    horizon=st.integers(min_value=1, max_value=16),
    p0_success=st.sampled_from([F(0), F(1), F(1, 2), F(2, 9)]),
)
@settings(max_examples=60, deadline=None)
def test_kwt_design_on_coins_with_a_zero_entry_matches_fraction_oracle(
        coins, lam1, lam2, horizon, p0_success):
    """theta = 0 or 1 zeroes a stop risk on all but one state of a row,
    so the risks tie over runs of states."""
    theta1, theta2 = coins
    model = make_model([1 - theta1, theta1], [1 - theta2, theta2],
                       lam1=lam1, lam2=lam2, horizon=horizon)
    p0 = (1 - p0_success, p0_success)
    design = kwt_design(model, p0)
    actions, bounds = kwt_fraction_induction(
        F(theta1), F(theta2), lam1, lam2, horizon, p0)
    assert design.actions == actions
    assert design.continue_bounds == bounds


@pytest.mark.parametrize("theta1, theta2", [("0.8", "0.2"), ("0.9", "0.1")])
def test_kwt_matched_equals_per_lambda_search(theta1, theta2, monkeypatch):
    model = bernoulli_model(theta1, theta2, lam1=3, lam2=3, horizon=15)
    sprt = sprt_design(model, F(1, 10_000))
    built = []
    monkeypatch.setattr(baselines, "_kwt_tables",
                        lambda *args: built.append(args) or _kwt_tables(*args))
    design, probe = kwt_matched(model, sprt.alpha1, sprt.alpha2)
    assert len(built) == 1  # the tables are built once for every lambda
    want_design, want_probe = kwt_matched_per_lambda(
        model, sprt.alpha1, sprt.alpha2)
    assert probe == want_probe
    assert design == want_design


def test_kwt_analyze_randomized_ties_match_fraction_oracle():
    # 0.8 vs 0.2 with equal weights ties on the centre line
    design = kwt_design(bernoulli_model("0.8", "0.2", 20, 20, 12), HALF)
    assert "randomized" in design.actions.values()
    for theta in (F(1, 2), F(1, 7), F(5, 6)):
        assert kwt_analyze(design, FIG, theta) == kwt_analyze_fraction(design, theta)



def test_error_sum_floor_by_enumeration():
    # every length-H word, the smaller of its two likelihoods
    for theta1, theta2, horizon in ((F(4, 5), F(1, 5), 6),
                                    (F(7, 10), F(1, 3), 5)):
        model = bernoulli_model(theta1, theta2, lam1=1, lam2=1, horizon=1)
        brute = F(0)
        for word in range(2**horizon):
            s = bin(word).count("1")
            brute += min(theta1**s * (1 - theta1) ** (horizon - s),
                         theta2**s * (1 - theta2) ** (horizon - s))
        assert _error_sum_floor(model, horizon) == brute


@pytest.mark.parametrize("lam", [1, 5, 40, 10**6])
def test_kwt_errors_never_beat_the_floor(lam):
    model = bernoulli_model("0.7", "0.3", lam1=lam, lam2=lam, horizon=14)
    design = kwt_design(model, HALF)
    _, _, h2 = kwt_analyze(design, model, F(7, 10))
    _, h1, _ = kwt_analyze(design, model, F(3, 10))
    assert h1 + h2 >= _error_sum_floor(model, 14)


def test_kwt_matched_rejects_unreachable_targets():
    # the SPRT's 1e-4 errors on 0.7 vs 0.3 sum below what any test that
    # stops by sample 80 can reach, so no lambda can match them
    model = bernoulli_model("0.7", "0.3", lam1=20, lam2=20, horizon=9)
    sprt = sprt_design(model, F(1, 10_000))
    floor = _error_sum_floor(model, 80)
    assert sprt.alpha1 + sprt.alpha2 < floor
    assert abs(floor - F("1.967e-4")) < F(1, 10**7)
    with pytest.raises(ValueError, match="least error sum"):
        kwt_matched(model, sprt.alpha1, sprt.alpha2)
    # a loose target on the same model still matches
    design, probe = kwt_matched(model, F(1, 100), F(1, 100))
    assert kwt_analyze(design, probe, F(7, 10))[2] <= F(1, 100)


def test_kwt_matched_stops_where_the_design_freezes():
    # every equal-lambda design decides H2 with positive probability under
    # the first hypothesis, so alpha1 <= 0 is out of reach although the
    # error sum clears the floor; past lambda = H * D**H = 6 * 10**6 the
    # design is constant, and the search gives up there
    model = bernoulli_model("0.8", "0.3", lam1=1, lam2=1, horizon=1)
    with pytest.raises(ValueError, match=r"no lambda past 2\*\*23"):
        kwt_matched(model, 0, 1, horizon=6)
    frozen = kwt_design(bernoulli_model("0.8", "0.3", lam1=2**23,
                                        lam2=2**23, horizon=6), HALF)
    for lam in (2**24, 10**12):
        later = bernoulli_model("0.8", "0.3", lam1=lam, lam2=lam, horizon=6)
        assert kwt_design(later, HALF).actions == frozen.actions


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_curve_fsst_constant_and_symmetric():
    grid = [F(i, 10) for i in range(1, 10)]
    rows = sample_size_curve(FsstDesign(3, 2), FIG, grid)
    assert {r.expected_sample_size for r in rows} == {F(3)}
    assert {r.test_name for r in rows} == {"fsst"}
    assert all(r.alpha1 == F(13, 125) for r in rows)


def test_curve_symmetry_under_theta_flip():
    grid = [F(i, 10) for i in range(1, 10)]
    for design in (SprtDesign(-5, 5), kwt_design(FIG, HALF)):
        rows = sample_size_curve(design, FIG, grid)
        es = [r.expected_sample_size for r in rows]
        assert es == es[::-1]


def test_curve_sprt_excess_over_fsst_at_midpoint():
    # the four-extra-samples behaviour shows up at the 1e-3 error level
    sprt = sprt_design(FIG, F(1, 1_000)).design
    fsst = fsst_design(FIG, F(1, 1_000))
    assert fsst == FsstDesign(21, 11)
    mid = sample_size_curve(sprt, FIG, [F(1, 2)])[0].expected_sample_size
    assert mid - fsst.n == 4


def test_curve_csv_rendering():
    rows = sample_size_curve(FsstDesign(3, 2), FIG, [F(1, 3), F(1, 2)])
    text = curves_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "theta,expected_sample_size,alpha1,alpha2,test_name"
    assert lines[1] == "0.333333333333,3,0.104,0.104,fsst"
    assert lines[2] == "0.5,3,0.104,0.104,fsst"
    assert text == curves_to_csv(rows)  # rendering is pure


def test_curve_rejects_unknown_design():
    with pytest.raises(TypeError):
        sample_size_curve(object(), FIG, [F(1, 2)])
