"""Exact analysis of the classical comparison tests.

Three baselines against the adversarially-robust design: the sequential
probability ratio test (SPRT), the fixed-sample-size test (FSST), and the
modified Kiefer–Weiss test (KWT) solved by backward induction under a
fixed worst-case sampling distribution.

Everything is Bernoulli-specific and exact.  The SPRT here rides the
integer statistic T_n = (#successes) - (#failures): a +/-1 random walk,
so integer thresholds are hit exactly and no boundary randomization is
ever needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from .bellman import NominalModel, make_model
from .pwl import RationalLike, decimal_str, rat

__all__ = [
    "SprtDesign",
    "SprtAnalysis",
    "SprtDesignReport",
    "sprt_analyze",
    "sprt_errors",
    "sprt_design",
    "FsstDesign",
    "fsst_analyze",
    "fsst_design",
    "KwtDesign",
    "kwt_design",
    "kwt_analyze",
    "kwt_matched",
    "CurveRow",
    "sample_size_curve",
    "curves_to_csv",
]


def _require_coin(model: NominalModel) -> tuple[Fraction, Fraction]:
    if model.alphabet_size != 2:
        raise ValueError("baseline tests are defined for binary alphabets")
    return model.p1[1], model.p2[1]  # success probabilities


def _require_symmetric_coin(model: NominalModel) -> tuple[Fraction, Fraction]:
    """The success probabilities of a coin on either side of 1/2, where the
    SPRT's and the FSST's symmetric thresholds reach any error target."""
    t1, t2 = _require_coin(model)
    if not 0 < t2 < Fraction(1, 2) < t1 < 1:
        raise ValueError("symmetric thresholds need "
                         "0 < theta2 < 1/2 < theta1 < 1")
    return t1, t2


# ---------------------------------------------------------------------------
# SPRT: exact random-walk absorption analysis
# ---------------------------------------------------------------------------

class SprtDesign(NamedTuple("SprtDesign", [("lower", int), ("upper", int)])):
    """Constant thresholds on T_n: stop and accept H1 at ``upper``, stop and
    accept H2 at ``lower``; keep sampling strictly in between."""

    __slots__ = ()

    def __new__(cls, lower: int, upper: int) -> SprtDesign:
        if not lower < 0 < upper:
            raise ValueError("need lower < 0 < upper")
        return super().__new__(cls, lower, upper)


class SprtAnalysis(NamedTuple):
    """Exact behaviour of an SPRT when data are i.i.d. Bernoulli(theta).

    ``tail`` maps n to P(tau > n), computed by forward iteration over the
    transient statistic values and cached.
    """

    theta: Fraction
    p_decide_h1: Fraction
    p_decide_h2: Fraction
    expected_sample_size: Fraction
    tail: Callable[[int], Fraction]


def _first_step_solve(
    design: SprtDesign, theta: Fraction, source: Callable[[int], int]
) -> Fraction:
    """v(0) of v(t) = source(t)/D + theta*v(t+1) + (1-theta)*v(t-1) on the
    transient states with v(lower) = v(upper) = 0, exactly, where
    theta = a/D in lowest terms and ``source`` gives integers.

    The first-step system is tridiagonal; a single forward sweep carrying
    v(t) as an affine function of the unknown s = v(lower+1) solves it
    without building a matrix.  Multiplying a*v(t+1) = D*v(t) -
    b*v(t-1) - source(t) (b = D - a) through by a**k, k = t - lower - 1,
    keeps it in integers: v(t) = (A_t*s + B_t) / a**k with

        A_{t+1} = D*A_t - a*b*A_{t-1},
        B_{t+1} = D*B_t - a*b*B_{t-1} - source(t) * a**k,

    from A = B = 0 at lower and A = 1, B = 0 at lower + 1.  A_t is the sum
    of a**i * b**(k-i) over i <= k, so A_upper > 0 and v(upper) = 0 gives
    s = -B_upper / A_upper; only v(0) becomes a ``Fraction``.
    """
    lo, hi = design.lower, design.upper
    a, den = theta.numerator, theta.denominator
    ab = a * (den - a)
    a_prev, a_cur, b_prev, b_cur = 0, 1, 0, 0
    power = 1  # a**k at the current t
    for t in range(lo + 1, hi):
        if t == 0:
            a_zero, b_zero, power_zero = a_cur, b_cur, power
        a_prev, a_cur = a_cur, den * a_cur - ab * a_prev
        b_prev, b_cur = b_cur, den * b_cur - ab * b_prev - source(t) * power
        power *= a
    # v(0) = (A_0 * s + B_0) / a**k0 with s = -B_upper / A_upper
    return Fraction(b_zero * a_cur - a_zero * b_cur, a_cur * power_zero)


def _p_decide_h1(design: SprtDesign, theta: Fraction) -> Fraction:
    """P(absorb at upper | start 0).  As a function of the start it solves
    the homogeneous recurrence with boundary 1 at upper and 0 at lower;
    subtracting the boundary turns it into a zero-boundary solve whose
    source, theta = a/D, fires on the state next to upper (the only place a
    single step reaches the upper boundary)."""
    a, top = theta.numerator, design.upper - 1
    return _first_step_solve(design, theta, lambda t: a if t == top else 0)


def _check_theta(theta: RationalLike) -> Fraction:
    th = rat(theta)
    if not 0 < th < 1:
        raise ValueError("theta must lie strictly inside (0, 1)")
    return th


def sprt_analyze(design: SprtDesign, theta: RationalLike) -> SprtAnalysis:
    """Exact absorption probabilities, mean sample size and tail for an
    SPRT run on Bernoulli(theta) data."""
    th = _check_theta(theta)
    lo, hi = design.lower, design.upper
    p_h1 = _p_decide_h1(design, th)
    mean = _first_step_solve(design, th, lambda t: th.denominator)

    # distribution over transient statistic values after k steps; its total
    # mass is P(tau > k).  Advanced lazily and never recomputed.
    cache: dict[int, Fraction] = {0: Fraction(1)}
    frontier: dict = {"n": 0, "dist": {0: Fraction(1)}}

    def tail(n: int) -> Fraction:
        if n < 0:
            return Fraction(1)
        if n not in cache:
            k, dist = frontier["n"], frontier["dist"]
            while k < n:
                nxt: dict[int, Fraction] = {}
                for t, mass in dist.items():
                    if t + 1 < hi:
                        nxt[t + 1] = nxt.get(t + 1, Fraction(0)) + mass * th
                    if t - 1 > lo:
                        nxt[t - 1] = nxt.get(t - 1, Fraction(0)) + mass * (1 - th)
                dist = nxt
                k += 1
                cache[k] = sum(dist.values(), Fraction(0))
            frontier["n"], frontier["dist"] = k, dist
        return cache[n]

    return SprtAnalysis(
        theta=th,
        p_decide_h1=p_h1,
        p_decide_h2=1 - p_h1,
        expected_sample_size=mean,
        tail=tail,
    )


def sprt_errors(design: SprtDesign, model: NominalModel) -> tuple[Fraction, Fraction]:
    """(alpha1, alpha2): wrong-decision probabilities under the hypotheses.
    Solves only the absorption probabilities."""
    t1, t2 = (_check_theta(t) for t in _require_coin(model))
    return 1 - _p_decide_h1(design, t1), _p_decide_h1(design, t2)


class SprtDesignReport(NamedTuple):
    design: SprtDesign
    alpha1: Fraction
    alpha2: Fraction


def sprt_design(model: NominalModel, alpha_target: RationalLike) -> SprtDesignReport:
    """Smallest symmetric thresholds (upper = -lower) with both exact
    errors at or below the target.

    Defined for 0 < theta2 < 1/2 < theta1 < 1 only (``ValueError``
    otherwise): with r = (1-theta)/theta the walk T_n started at 0 reaches
    -b before b with probability r**b / (1 + r**b), so the errors at
    threshold b are alpha1 = r1**b / (1 + r1**b) and
    alpha2 = 1 / (1 + r2**b).  They fall to 0 exactly when r1 < 1 < r2,
    and both are at most the target once r1**b and r2**-b are at most
    target / (1 - target).  The search is exhaustive over integers up to
    that b, computed in floats and padded by 4, and at least 1: for a
    target of 1/2 or more the bound is not positive, and b = 1 meets it.
    """
    target = rat(alpha_target)
    if not 0 < target < 1:
        raise ValueError("alpha_target must lie in (0, 1)")
    t1, t2 = _require_symmetric_coin(model)
    step = min(math.log(t1 / (1 - t1)), math.log((1 - t2) / t2))
    cap = max(1, math.ceil(math.log((1 - target) / target) / step) + 4)
    for b in range(1, cap + 1):
        design = SprtDesign(lower=-b, upper=b)
        a1, a2 = sprt_errors(design, model)
        if a1 <= target and a2 <= target:
            return SprtDesignReport(design, a1, a2)
    # unreachable: b = 1 meets a target >= 1/2 (both errors are then below
    # 1/2), and below 1/2 only float rounding worse than 4 steps gets here
    raise ArithmeticError("threshold search exceeded the walk's cap")


# ---------------------------------------------------------------------------
# FSST: exact binomial tails
# ---------------------------------------------------------------------------

class FsstDesign(NamedTuple("FsstDesign", [("n", int), ("k", int)])):
    """Sample exactly n, decide H1 iff the success count reaches k.

    With even n and the symmetric threshold the boundary count n/2 can tie;
    ties decide H1 with probability 1/2 to preserve symmetry.  ``k`` may be
    0 (always H1) or n+1 (always H2).
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int) -> FsstDesign:
        if n < 1 or not 0 <= k <= n + 1:
            raise ValueError("need n >= 1 and 0 <= k <= n+1")
        return super().__new__(cls, n, k)

    @property
    def tie_count(self) -> Optional[int]:
        """The success count decided by a fair coin, if any."""
        if self.n % 2 == 0 and self.k == self.n // 2 + 1:
            return self.n // 2
        return None


def _fsst_p_h1(design: FsstDesign, theta: Fraction) -> Fraction:
    """P(decide H1) at Bernoulli(theta), theta = a/D: the binomial tail
    from k, plus half the tie count's mass, as one integer over 2 * D**n."""
    a, den = theta.numerator, theta.denominator
    b, n = den - a, design.n
    total = 2 * sum(math.comb(n, s) * a**s * b ** (n - s)
                    for s in range(design.k, n + 1))
    tie = design.tie_count
    if tie is not None:
        total += math.comb(n, tie) * a**tie * b ** (n - tie)
    return Fraction(total, 2 * den**n)


def fsst_analyze(design: FsstDesign, model: NominalModel) -> tuple[Fraction, Fraction]:
    """(alpha1, alpha2) for the fixed-sample test, exactly."""
    t1, t2 = _require_coin(model)
    return 1 - _fsst_p_h1(design, t1), _fsst_p_h1(design, t2)


def fsst_design(model: NominalModel, alpha_target: RationalLike) -> FsstDesign:
    """Smallest n meeting the target with the symmetric count threshold
    k = ceil((n+1)/2).

    Defined for 0 < theta2 < 1/2 < theta1 < 1 only (``ValueError``
    otherwise): on any other coin one of the majority vote's errors does
    not fall to 0 as n grows, and no n meets a small target.
    """
    target = rat(alpha_target)
    if not 0 < target < 1:
        raise ValueError("alpha_target must lie in (0, 1)")
    _require_symmetric_coin(model)
    n = 1
    while True:
        design = FsstDesign(n=n, k=(n + 2) // 2)
        a1, a2 = fsst_analyze(design, model)
        if a1 <= target and a2 <= target:
            return design
        n += 1
        if n > 10_000:  # pragma: no cover
            raise ArithmeticError("no fixed-sample design below n = 10000")


# ---------------------------------------------------------------------------
# KWT: modified Kiefer-Weiss test by backward induction under fixed P0
# ---------------------------------------------------------------------------

class KwtDesign(NamedTuple):
    """Stop/continue table of the modified Kiefer-Weiss test.

    ``actions[(n, m)]`` for reachable states (n samples, m successes) is
    "H1"/"H2"/"randomized" where the test stops and "continue" where it
    keeps sampling; ``continue_bounds`` lists per sample count the extreme
    statistic values T_n = 2m - n still in the continuation region, and is
    empty at and beyond the intrinsic truncation point.
    """

    horizon: int
    p0: tuple[Fraction, Fraction]
    actions: dict[tuple[int, int], str]
    continue_bounds: tuple[tuple[int, int, int], ...]

    @property
    def truncation_level(self) -> int:
        """First sample count by which every path has surely stopped."""
        if not self.continue_bounds:
            return 0
        return self.continue_bounds[-1][0] + 1


def _powers(base: int, top: int) -> list[int]:
    """base**k for k = 0..top."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _kwt_tables(
    theta1: Fraction, theta2: Fraction, p0: tuple[Fraction, Fraction],
    horizon: int,
) -> tuple[list[tuple[list[int], ...]], dict]:
    """The lambda-free integer tables of the Kiefer-Weiss induction.

    With D the lcm of the denominators of theta1, theta2 and both entries
    of ``p0`` (so every per-symbol probability is an integer over D), row n
    holds three lists over m = 0..n, each value times D**horizon: the stop
    risk of deciding H2 with its lambda1 factored out,
    theta1**m * (1-theta1)**(n-m); that of deciding H1 with lambda2
    factored out, the same in theta2; and the P0 sampling mass
    p0[1]**m * p0[0]**(n-m).  The rows come with an empty memo, where
    ``_kwt_pass`` keeps the stop labels of each ratio lambda1/lambda2.
    """
    den = math.lcm(theta1.denominator, theta2.denominator,
                   p0[0].denominator, p0[1].denominator)
    a1, b1, a2, b2, g1, g0, rest = (
        _powers(p.numerator * (den // p.denominator), horizon)
        for p in (theta1, 1 - theta1, theta2, 1 - theta2, p0[1], p0[0],
                  Fraction(1)))  # rest[k] = D**k
    rows = []
    for n in range(horizon + 1):
        scale = rest[horizon - n]
        rows.append(tuple([x[m] * y[n - m] * scale for m in range(n + 1)]
                          for x, y in ((a1, b1), (a2, b2), (g1, g0))))
    return rows, {}


def _run(xs: list[int], x: int, ys: list[int], y: int,
         near: tuple[int, int]) -> tuple[int, int]:
    """(start, stop) of the m with x*xs[m] > y*ys[m] in a row, where those
    m form a prefix or a suffix; the search walks from the edge of
    ``near``, the run of the row before."""
    n = len(xs) - 1
    first = x * xs[0] > y * ys[0]
    if first == (x * xs[n] > y * ys[n]):
        return (0, n + 1) if first else (0, 0)
    b = min(max(near[1] if near[0] == 0 else near[0], 1), n)
    while b > 1 and (x * xs[b - 1] > y * ys[b - 1]) != first:
        b -= 1
    while (x * xs[b] > y * ys[b]) == first:
        b += 1
    return (0, b) if first else (b, n + 1)


def _kwt_pass(
    tables: tuple[list[tuple[list[int], ...]], dict],
    p0: tuple[Fraction, Fraction],
    lam1: Fraction,
    lam2: Fraction,
) -> KwtDesign:
    """The backward pass of the Kiefer-Weiss induction over ``tables``
    (from ``_kwt_tables``) at the weights lam1, lam2.

    Every value is scaled by the one positive constant L * D**horizon, L
    the lcm of the lambda denominators: a stop risk is its table entry
    times lam*L, the sampling mass its entry times L, and sums of later
    values stay sums, so each comparison is the exact rational one.

    Each entry of a row is c * u**m * v**(n-m) with u, v >= 0, so the m
    where one weighted entry beats another form a prefix or a suffix of
    the row (``_run``).  Hence:

    * Labels: a row's stop labels are runs H2 | randomized | H1 (or the
      reverse) around one crossing of lam1*R1 and lam2*R2.  They depend
      only on lam1/lam2, and the memo of ``tables`` keeps them per ratio.
    * Band: a state whose stop risk min(lam1*R1, lam2*R2) is at most its
      sampling mass M never continues, as continuing costs M plus later
      values >= 0.  So the states that can continue form one interval.
      Values are computed there only; a child outside the next row's band
      takes its stop risk.
    """
    rows, memo = tables
    horizon = len(rows) - 1
    lam_den = math.lcm(lam1.denominator, lam2.denominator)
    l1 = lam1.numerator * (lam_den // lam1.denominator)
    l2 = lam2.numerator * (lam_den // lam2.denominator)
    if lam1 / lam2 not in memo:
        stops = memo[lam1 / lam2] = {}
        h1 = h2 = (0, 0)
        for n in range(horizon, -1, -1):
            r1, r2, _ = rows[n]
            row = ["randomized"] * (n + 1)
            h1 = _run(r1, l1, r2, l2, h1)  # deciding H2 costs more
            h2 = _run(r2, l2, r1, l1, h2)
            row[h1[0]:h1[1]] = ["H1"] * (h1[1] - h1[0])
            row[h2[0]:h2[1]] = ["H2"] * (h2[1] - h2[0])
            stops.update(((n, m), act) for m, act in enumerate(row))
    actions = memo[lam1 / lam2].copy()

    later: list[int] = []  # scaled values of row n + 1 on [lo, hi)
    lo = hi = 0
    band1 = band2 = (0, 0)
    for n in range(horizon - 1, -1, -1):
        r1, r2, mass = rows[n]
        band1 = _run(r1, l1, mass, lam_den, band1)
        band2 = _run(r2, l2, mass, lam_den, band2)
        start, stop = max(band1[0], band2[0]), min(band1[1], band2[1])
        if start >= stop:
            later, lo, hi = [], 0, 0
            continue
        # the children [start, stop]: row n + 1's values where they are
        # known, stop risks on either side
        c1, c2, _ = rows[n + 1]
        mid = min(max(lo, start), stop + 1)
        end = max(min(hi, stop + 1), mid)
        kids = ([min(l1 * u, l2 * v) for u, v in zip(c1[start:mid], c2[start:mid])]
                + later[mid - lo:end - lo]
                + [min(l1 * u, l2 * v)
                   for u, v in zip(c1[end:stop + 1], c2[end:stop + 1])])
        later, lo, hi = [], start, stop
        for m, u, v, g, k0, k1 in zip(range(start, stop), r1[start:stop],
                                      r2[start:stop], mass[start:stop],
                                      kids, kids[1:]):
            u *= l1
            v *= l2
            cont = lam_den * g + k0 + k1
            if cont < u and cont < v:
                actions[n, m] = "continue"
                later.append(cont)
            else:
                later.append(u if u < v else v)

    # Bounds are reported over *reachable* continuation states: backward
    # induction also labels states the test can never enter, and those can
    # form disconnected continue-islands deep in the grid (sampling cost
    # under P0 decays faster than the stopping risk on the center line).
    bounds = []
    frontier = {0}
    for n in range(horizon):
        live = sorted(m for m in frontier if actions[(n, m)] == "continue")
        if not live:
            break
        bounds.append((n, 2 * live[0] - n, 2 * live[-1] - n))
        frontier = {m for base in live for m in (base, base + 1)}
    return KwtDesign(
        horizon=horizon, p0=p0, actions=actions,
        continue_bounds=tuple(bounds),
    )


def kwt_design(model: NominalModel, p0_worst: Iterable[RationalLike]) -> KwtDesign:
    """Backward induction for min E_P0[tau] + lam1*alpha1 + lam2*alpha2.

    ``p0_worst`` is the sampling distribution the test is tuned against —
    Bernoulli(1/2) is the worst case for symmetric hypotheses.  All three
    measures are exchangeable, so per-path values depend only on (n, m)
    and the objective splits path by path: no binomial weights needed.

    The induction runs in integers, in two parts: ``_kwt_tables`` builds
    the stop risks and sampling masses, which do not depend on lambda, and
    ``_kwt_pass`` multiplies in the weights and compares.
    """
    _require_coin(model)
    p0 = tuple(rat(v) for v in p0_worst)
    if len(p0) != 2 or any(v < 0 for v in p0) or sum(p0) != 1:
        raise ValueError("p0_worst must be a PMF on {failure, success}")
    tables = _kwt_tables(model.p1[1], model.p2[1], p0, model.horizon)
    return _kwt_pass(tables, p0, model.lam1, model.lam2)


def kwt_analyze(
    design: KwtDesign, model: NominalModel, theta: RationalLike
) -> tuple[Fraction, Fraction, Fraction]:
    """(expected sample size, P(decide H1), P(decide H2)) at Bernoulli(theta),
    by exact forward iteration over the stop/continue table.

    With theta = a/D the mass at (n, m) is paths * a**m * b**(n-m) / D**n,
    b = D - a, where ``paths`` counts the continuing paths into (n, m).  The
    iteration pushes those integer counts forward and adds each mass to its
    sum as an integer over 2 * D**horizon (the 2 for randomized ties), so
    only the three results are reduced."""
    th = _check_theta(theta)
    horizon, a, den = design.horizon, th.numerator, th.denominator
    pa, pb, pd = (_powers(v, horizon) for v in (a, den - a, den))
    paths: dict[int, int] = {0: 1}
    e_tau = 0  # over D**horizon
    h1 = 0     # over 2 * D**horizon
    h2 = 0
    for n in range(horizon + 1):
        rest = pd[horizon - n]
        nxt: dict[int, int] = {}
        for m, count in paths.items():
            mass = count * pa[m] * pb[n - m] * rest
            act = design.actions[(n, m)]
            if act == "continue":
                e_tau += mass
                nxt[m + 1] = nxt.get(m + 1, 0) + count
                nxt[m] = nxt.get(m, 0) + count
            elif act == "H1":
                h1 += 2 * mass
            elif act == "H2":
                h2 += 2 * mass
            else:  # randomized tie
                h1 += mass
                h2 += mass
        paths = nxt
    assert not paths, "mass survived past the horizon"
    scale = pd[horizon]
    return Fraction(e_tau, scale), Fraction(h1, 2 * scale), Fraction(h2, 2 * scale)


def _error_sum_floor(model: NominalModel, horizon: int) -> Fraction:
    """Least alpha1 + alpha2 of any test that stops by sample ``horizon``:
    the equal-weight Neyman-Pearson test on all ``horizon`` samples,
    sum_s C(H, s) * min(theta1^s (1-theta1)^(H-s), theta2^s (1-theta2)^(H-s))."""
    t1, t2 = _require_coin(model)
    den = math.lcm(t1.denominator, t2.denominator)
    # theta and 1 - theta as integers over den
    a1, a2 = (t.numerator * (den // t.denominator) for t in (t1, t2))
    b1, b2 = den - a1, den - a2
    total = sum(
        math.comb(horizon, s) * min(a1**s * b1 ** (horizon - s),
                                    a2**s * b2 ** (horizon - s))
        for s in range(horizon + 1)
    )
    return Fraction(total, den**horizon)


def kwt_matched(
    model: NominalModel,
    alpha1: RationalLike,
    alpha2: RationalLike,
    horizon: int = 80,
) -> tuple[KwtDesign, NominalModel]:
    """The Kiefer-Weiss test at least as accurate as the given errors.

    Doubles the common error weight lambda = 2, 4, 8, ... and solves the
    design at ``horizon`` under Bernoulli(1/2), as ``kwt_design`` would,
    until the design's exact errors are at most ``alpha1`` under the first
    hypothesis and ``alpha2`` under the second.  The lambda-free tables are
    built once and only the backward pass runs per lambda.  Returns the
    design and the model it was solved for (the hypotheses of ``model``
    with that lambda and horizon).

    Raises ``ValueError`` in two cases.  Before any solve, when
    ``alpha1 + alpha2`` lies below the least error sum of any test that
    stops by ``horizon`` (``_error_sum_floor``); that is a necessary
    condition only, and targets above it can still be out of reach.  And
    when lambda passes H * D**H (D the lcm of the denominators of theta1,
    theta2 and 1/2) without a match: in ``kwt_design``'s integer scaling
    each value is lambda * A + B with integers A and 0 <= B <= H * D**H, so
    past that lambda every comparison is decided by the A's alone and the
    design no longer changes.
    """
    target1, target2 = rat(alpha1), rat(alpha2)
    floor = _error_sum_floor(model, horizon)
    if target1 + target2 < floor:
        raise ValueError(
            f"no test stopping by sample {horizon} reaches alpha1 + alpha2 = "
            f"{float(target1 + target2):.4g}: the least error sum is "
            f"{float(floor):.4g}"
        )
    t1, t2 = _require_coin(model)
    frozen = horizon * math.lcm(t1.denominator, t2.denominator, 2) ** horizon
    half = (Fraction(1, 2), Fraction(1, 2))
    tables = _kwt_tables(t1, t2, half, horizon)  # shared by every lambda
    previous = None
    lam = 2
    while True:
        design = _kwt_pass(tables, half, Fraction(lam), Fraction(lam))
        if design.actions != previous:  # an unchanged table has not matched
            _, _, h2 = kwt_analyze(design, model, t1)
            # the error under the second hypothesis only once the first fits
            if h2 <= target1 and kwt_analyze(design, model, t2)[1] <= target2:
                return design, make_model(list(model.p1), list(model.p2),
                                          lam1=lam, lam2=lam, horizon=horizon)
        if lam > frozen:
            raise ValueError(
                f"no Kiefer-Weiss test at horizon {horizon} reaches "
                f"alpha1 <= {float(target1):.4g} and "
                f"alpha2 <= {float(target2):.4g}, and no lambda past "
                f"2**{lam.bit_length() - 1} changes its design"
            )
        previous = design.actions
        lam *= 2


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class CurveRow(NamedTuple):
    theta: Fraction
    expected_sample_size: Fraction
    alpha1: Fraction
    alpha2: Fraction
    test_name: str


def sample_size_curve(design, model: NominalModel, theta_grid) -> list[CurveRow]:
    """Exact expected-sample-size rows over a grid of true success
    probabilities.  The alpha columns carry the design's errors under the
    model hypotheses (they do not vary with the grid point)."""
    rows = []
    if isinstance(design, SprtDesign):
        a1, a2 = sprt_errors(design, model)
        name = "sprt"
        for theta in theta_grid:
            e = sprt_analyze(design, theta).expected_sample_size
            rows.append(CurveRow(rat(theta), e, a1, a2, name))
    elif isinstance(design, FsstDesign):
        a1, a2 = fsst_analyze(design, model)
        for theta in theta_grid:
            rows.append(CurveRow(rat(theta), Fraction(design.n), a1, a2, "fsst"))
    elif isinstance(design, KwtDesign):
        t1, t2 = _require_coin(model)
        _, _, d2 = kwt_analyze(design, model, t1)
        _, d1, _ = kwt_analyze(design, model, t2)
        for theta in theta_grid:
            e, _, _ = kwt_analyze(design, model, theta)
            rows.append(CurveRow(rat(theta), e, d2, d1, "kwt"))
    else:
        raise TypeError(f"no curve evaluator for {type(design).__name__}")
    return rows


def curves_to_csv(rows: Iterable[CurveRow]) -> str:
    lines = ["theta,expected_sample_size,alpha1,alpha2,test_name"]
    for r in rows:
        lines.append(",".join((
            decimal_str(r.theta), decimal_str(r.expected_sample_size),
            decimal_str(r.alpha1), decimal_str(r.alpha2), r.test_name,
        )))
    return "\n".join(lines) + "\n"
