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
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .bellman import NominalModel, make_model
from .pwl import RationalLike, rat

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


# ---------------------------------------------------------------------------
# SPRT: exact random-walk absorption analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SprtDesign:
    """Constant thresholds on T_n: stop and accept H1 at ``upper``, stop and
    accept H2 at ``lower``; keep sampling strictly in between."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if not self.lower < 0 < self.upper:
            raise ValueError("need lower < 0 < upper")


@dataclass(frozen=True)
class SprtAnalysis:
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
    design: SprtDesign, theta: Fraction, source: Callable[[int], Fraction]
) -> dict[int, Fraction]:
    """Solve v(t) = source(t) + theta*v(t+1) + (1-theta)*v(t-1) on the
    transient states with v(lower) = v(upper) = 0, exactly.

    The first-step system is tridiagonal; a single forward sweep carrying
    v(t) as an affine function of the unknown v(lower+1) solves it without
    building a matrix.
    """
    lo, hi = design.lower, design.upper
    # v(t) = a(t) * s + b(t) with s = v(lo+1)
    a = {lo: Fraction(0), lo + 1: Fraction(1)}
    b = {lo: Fraction(0), lo + 1: Fraction(0)}
    for t in range(lo + 1, hi):
        a[t + 1] = (a[t] - (1 - theta) * a[t - 1]) / theta
        b[t + 1] = (b[t] - source(t) - (1 - theta) * b[t - 1]) / theta
    if a[hi] == 0:  # pragma: no cover - impossible for theta in (0,1)
        raise ArithmeticError("degenerate chain")
    s = -b[hi] / a[hi]
    return {t: a[t] * s + b[t] for t in range(lo, hi + 1)}


def sprt_analyze(design: SprtDesign, theta: RationalLike) -> SprtAnalysis:
    """Exact absorption probabilities, mean sample size and tail for an
    SPRT run on Bernoulli(theta) data."""
    th = rat(theta)
    if not 0 < th < 1:
        raise ValueError("theta must lie strictly inside (0, 1)")
    lo, hi = design.lower, design.upper

    # P(absorb at upper | start t) satisfies the homogeneous recurrence with
    # boundary 1 at hi, 0 at lo.  Subtracting the boundary turns it into a
    # zero-boundary solve whose source fires on the state adjacent to hi
    # (the only place a single step reaches the upper boundary).
    hit = _first_step_solve(
        design, th, lambda t: th if t == hi - 1 else Fraction(0)
    )
    p_h1 = hit[0]
    mean = _first_step_solve(design, th, lambda t: Fraction(1))[0]

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
    """(alpha1, alpha2): wrong-decision probabilities under the hypotheses."""
    t1, t2 = _require_coin(model)
    return (
        sprt_analyze(design, t1).p_decide_h2,
        sprt_analyze(design, t2).p_decide_h1,
    )


@dataclass(frozen=True)
class SprtDesignReport:
    design: SprtDesign
    alpha1: Fraction
    alpha2: Fraction


def sprt_design(model: NominalModel, alpha_target: RationalLike) -> SprtDesignReport:
    """Smallest symmetric thresholds (upper = -lower) with both exact
    errors at or below the target.

    The search is exhaustive over integers; Wald's bound caps it, since a
    threshold at b costs at least the likelihood ratio it takes to get
    there, giving error <= target already at
    b = ln((1-target)/target) / |per-step log likelihood ratio|.
    """
    target = rat(alpha_target)
    if not 0 < target < 1:
        raise ValueError("alpha_target must lie in (0, 1)")
    t1, t2 = _require_coin(model)
    step_llr = min(
        abs(math.log(float(t1) / float(t2))),
        abs(math.log((1 - float(t1)) / (1 - float(t2)))),
    )
    cap = math.ceil(math.log((1 - float(target)) / float(target)) / step_llr) + 4
    for b in range(1, cap + 1):
        design = SprtDesign(lower=-b, upper=b)
        a1, a2 = sprt_errors(design, model)
        if a1 <= target and a2 <= target:
            return SprtDesignReport(design, a1, a2)
    raise ArithmeticError("threshold search exceeded the Wald cap")  # pragma: no cover


# ---------------------------------------------------------------------------
# FSST: exact binomial tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FsstDesign:
    """Sample exactly n, decide H1 iff the success count reaches k.

    With even n and the symmetric threshold the boundary count n/2 can tie;
    ties decide H1 with probability 1/2 to preserve symmetry.  ``k`` may be
    0 (always H1) or n+1 (always H2).
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1 or not 0 <= self.k <= self.n + 1:
            raise ValueError("need n >= 1 and 0 <= k <= n+1")

    @property
    def tie_count(self) -> Optional[int]:
        """The success count decided by a fair coin, if any."""
        if self.n % 2 == 0 and self.k == self.n // 2 + 1:
            return self.n // 2
        return None


def _binom_pmf(n: int, theta: Fraction) -> list[Fraction]:
    out = []
    for s in range(n + 1):
        out.append(math.comb(n, s) * theta**s * (1 - theta) ** (n - s))
    return out


def _fsst_p_h1(design: FsstDesign, theta: Fraction) -> Fraction:
    pmf = _binom_pmf(design.n, theta)
    p = sum(pmf[design.k:], Fraction(0))
    tie = design.tie_count
    if tie is not None:
        p += pmf[tie] / 2
    return p


def fsst_analyze(design: FsstDesign, model: NominalModel) -> tuple[Fraction, Fraction]:
    """(alpha1, alpha2) for the fixed-sample test, exactly."""
    t1, t2 = _require_coin(model)
    return 1 - _fsst_p_h1(design, t1), _fsst_p_h1(design, t2)


def fsst_design(model: NominalModel, alpha_target: RationalLike) -> FsstDesign:
    """Smallest n meeting the target with the symmetric count threshold
    k = ceil((n+1)/2)."""
    target = rat(alpha_target)
    if not 0 < target < 1:
        raise ValueError("alpha_target must lie in (0, 1)")
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

@dataclass(frozen=True)
class KwtDesign:
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


def kwt_design(model: NominalModel, p0_worst: Iterable[RationalLike]) -> KwtDesign:
    """Backward induction for min E_P0[tau] + lam1*alpha1 + lam2*alpha2.

    ``p0_worst`` is the sampling distribution the test is tuned against —
    Bernoulli(1/2) is the worst case for symmetric hypotheses.  All three
    measures are exchangeable, so per-path values depend only on (n, m)
    and the objective splits path by path: no binomial weights needed.

    The induction runs in integers.  With D the lcm of the denominators of
    theta1, theta2 and both entries of ``p0_worst`` (so every per-symbol
    probability is an integer over D) and L the lcm of the two lambda
    denominators, every value at (n, m) — the stop risks lam*z, the
    sampling mass P0(path) and the values of later states — is multiplied
    by the one positive constant L * D**horizon.  A stop risk becomes
    (lam1*L) * a1**m * b1**(n-m) * D**(horizon-n), the sampling mass
    L * g1**m * g0**(n-m) * D**(horizon-n), and sums of later values stay
    sums.  Every comparison is the exact rational one times that constant,
    so the actions and bounds are those of the rational recursion.
    """
    _require_coin(model)
    p0 = tuple(rat(v) for v in p0_worst)
    if len(p0) != 2 or any(v < 0 for v in p0) or sum(p0) != 1:
        raise ValueError("p0_worst must be a PMF on {failure, success}")
    horizon = model.horizon
    t1, t2 = model.p1[1], model.p2[1]
    den = math.lcm(t1.denominator, t2.denominator,
                   p0[0].denominator, p0[1].denominator)
    lam_den = math.lcm(model.lam1.denominator, model.lam2.denominator)

    def powers(prob: Fraction, scale: int = 1) -> list[int]:
        base = prob.numerator * (den // prob.denominator)
        out = [scale]
        for _ in range(horizon):
            out.append(out[-1] * base)
        return out

    # risk tables carry their lambda, the sampling table carries L
    a1 = powers(t1, model.lam1.numerator * (lam_den // model.lam1.denominator))
    b1 = powers(1 - t1)
    a2 = powers(t2, model.lam2.numerator * (lam_den // model.lam2.denominator))
    b2 = powers(1 - t2)
    g1 = powers(p0[1], lam_den)
    g0 = powers(p0[0])
    rest = powers(Fraction(1))  # rest[k] = D**k

    actions: dict[tuple[int, int], str] = {}
    later: list[int] = []  # scaled values of the states at n + 1
    for n in range(horizon, -1, -1):
        scale = rest[horizon - n]
        row = []
        for m in range(n + 1):
            r1 = a1[m] * b1[n - m] * scale  # paid when deciding H2
            r2 = a2[m] * b2[n - m] * scale  # paid when deciding H1
            stop = min(r1, r2)
            if n < horizon:
                cont = g1[m] * g0[n - m] * scale + later[m + 1] + later[m]
            if n == horizon or stop <= cont:
                row.append(stop)
                actions[(n, m)] = (
                    "H1" if r2 < r1 else "H2" if r1 < r2 else "randomized"
                )
            else:
                row.append(cont)
                actions[(n, m)] = "continue"
        later = row

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


def kwt_analyze(
    design: KwtDesign, model: NominalModel, theta: RationalLike
) -> tuple[Fraction, Fraction, Fraction]:
    """(expected sample size, P(decide H1), P(decide H2)) at Bernoulli(theta),
    by exact forward iteration over the stop/continue table."""
    th = rat(theta)
    if not 0 < th < 1:
        raise ValueError("theta must lie strictly inside (0, 1)")
    reach: dict[int, Fraction] = {0: Fraction(1)}
    e_tau = Fraction(0)
    p_h1 = Fraction(0)
    p_h2 = Fraction(0)
    for n in range(design.horizon + 1):
        nxt: dict[int, Fraction] = {}
        for m, mass in reach.items():
            if mass == 0:
                continue
            act = design.actions[(n, m)]
            if act == "continue":
                e_tau += mass
                nxt[m + 1] = nxt.get(m + 1, Fraction(0)) + mass * th
                nxt[m] = nxt.get(m, Fraction(0)) + mass * (1 - th)
            elif act == "H1":
                p_h1 += mass
            elif act == "H2":
                p_h2 += mass
            else:  # randomized tie
                p_h1 += mass / 2
                p_h2 += mass / 2
        reach = nxt
    assert not reach, "mass survived past the horizon"
    return e_tau, p_h1, p_h2


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

    Doubles the common error weight lambda = 2, 4, 8, ... and solves
    ``kwt_design`` at ``horizon`` under Bernoulli(1/2) until the design's
    exact errors are at most ``alpha1`` under the first hypothesis and
    ``alpha2`` under the second.  Returns the design and the model it was
    solved for (the hypotheses of ``model`` with that lambda and horizon).

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
    previous = None
    lam = 2
    while True:
        probe = make_model(list(model.p1), list(model.p2),
                           lam1=lam, lam2=lam, horizon=horizon)
        design = kwt_design(probe, half)
        if design.actions != previous:  # an unchanged table has not matched
            _, _, h2 = kwt_analyze(design, probe, t1)
            _, h1, _ = kwt_analyze(design, probe, t2)
            if h2 <= target1 and h1 <= target2:
                return design, probe
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

@dataclass(frozen=True)
class CurveRow:
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


def _sig12(x: Fraction) -> str:
    """12 significant digits, exactly rounded."""
    with localcontext() as ctx:
        ctx.prec = 12
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)


def curves_to_csv(rows: Iterable[CurveRow]) -> str:
    lines = ["theta,expected_sample_size,alpha1,alpha2,test_name"]
    for r in rows:
        lines.append(",".join((
            _sig12(r.theta), _sig12(r.expected_sample_size),
            _sig12(r.alpha1), _sig12(r.alpha2), r.test_name,
        )))
    return "\n".join(lines) + "\n"
