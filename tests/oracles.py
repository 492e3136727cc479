"""Independent brute-force oracles used across the test suite.

Everything here recomputes quantities the package produces, by a *different*
method (grid search, direct enumeration, closed forms, plain dynamic
programs), so agreement is
evidence rather than tautology.  Oracles favour clarity over speed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from npkw.pwl import PwlConcave, pwl_eval


def grid_supconv_max(
    fs: list[PwlConcave], t: Fraction, steps: int
) -> Fraction:
    """Brute-force sup-convolution value at t by grid search.

    Searches allocations (a_1, ..., a_K) with sum == t on a uniform grid of
    the stated step count per free coordinate, restricted to the feasible
    box.  For K == 2 the returned value is within slope_max * (t / steps)
    of the exact optimum: the exact maximizer's free coordinate can be
    moved to the nearest feasible grid point (distance <= one step), which
    lowers one operand by at most slope_max * step while the other operand,
    being nondecreasing, can only offset the loss in one direction.
    """
    k = len(fs)
    if k == 1:
        return pwl_eval(fs[0], t)
    best: Fraction | None = None
    if k == 2:
        lo = max(Fraction(0), t - fs[1].domain_upper)
        hi = min(fs[0].domain_upper, t)
        assert lo <= hi, "infeasible target"
        points = {lo, hi}
        for i in range(steps + 1):
            a = lo + (hi - lo) * Fraction(i, steps)
            points.add(a)
        for a in sorted(points):
            v = pwl_eval(fs[0], a) + pwl_eval(fs[1], t - a)
            if best is None or v > best:
                best = v
        return best
    # K >= 3: recursive grid over the first coordinate.
    lo = max(Fraction(0), t - sum(f.domain_upper for f in fs[1:]))
    hi = min(fs[0].domain_upper, t)
    assert lo <= hi, "infeasible target"
    points = {lo, hi}
    for i in range(steps + 1):
        points.add(lo + (hi - lo) * Fraction(i, steps))
    for a in sorted(points):
        v = pwl_eval(fs[0], a) + grid_supconv_max(fs[1:], t - a, steps)
        if best is None or v > best:
            best = v
    return best


def bernoulli_pmf(theta: Fraction) -> tuple[Fraction, Fraction]:
    """(P(0), P(1)) for a Bernoulli(theta) symbol; index 1 is success."""
    return (1 - theta, theta)


def stopping_risk(z1: Fraction, z2: Fraction, lam1: Fraction, lam2: Fraction) -> Fraction:
    """min(lam1*z1, lam2*z2): cost of stopping with the better decision."""
    return min(lam1 * z1, lam2 * z2)


def brute_minimax_value(
    p1: tuple[Fraction, ...],
    p2: tuple[Fraction, ...],
    lam1: Fraction,
    lam2: Fraction,
    horizon: int,
    z0: Fraction,
    z1: Fraction,
    z2: Fraction,
    depth: int,
    q_grid: list[tuple[Fraction, ...]],
) -> Fraction:
    """Direct recursion for the worst-case cost-to-go, adversary on a grid.

    Evaluates min{ g(z1,z2), z0 + max_q sum_x V(next) } straight from the
    definition, with the per-step adversary choice q restricted to the given
    grid of PMFs.  A grid adversary can only be weaker, so the result is a
    *lower* bound on the exact value; with a fine grid it sandwiches it.
    Exponential in the horizon — keep horizon <= 3.
    """
    g = stopping_risk(z1, z2, lam1, lam2)
    if depth >= horizon:
        return g
    best_cont: Fraction | None = None
    k = len(p1)
    for q in q_grid:
        total = Fraction(0)
        for x in range(k):
            total += brute_minimax_value(
                p1, p2, lam1, lam2, horizon,
                z0 * q[x], z1 * p1[x], z2 * p2[x],
                depth + 1, q_grid,
            )
        if best_cont is None or total > best_cont:
            best_cont = total
    return min(g, z0 + best_cont)


def simplex_grid(k: int, steps: int) -> list[tuple[Fraction, ...]]:
    """All PMFs on k symbols with denominators dividing ``steps``."""
    out = []
    for combo in product(range(steps + 1), repeat=k - 1):
        if sum(combo) <= steps:
            last = steps - sum(combo)
            out.append(tuple(Fraction(c, steps) for c in (*combo, last)))
    return out


def walk_survival(theta: Fraction, a: int, n: int) -> Fraction:
    """P(tau > n) for the +-1 walk started at 0 and absorbed at -a or +a,
    each step going up with probability theta.

    Backward DP over start positions: s_k(x), the chance that a walk started
    at x is still strictly between the barriers after k more steps, obeys
    s_k(x) = theta*s_{k-1}(x+1) + (1-theta)*s_{k-1}(x-1), with s_0 = 1
    inside and 0 on the barriers.  The package's SPRT tail pushes the
    surviving mass forward from 0 instead; this conditions on the first
    step, so the two routes share only the walk's definition and exact
    agreement between them is evidence.
    """
    # index i holds position i - a; the barrier entries stay 0
    s = [Fraction(0)] + [Fraction(1)] * (2 * a - 1) + [Fraction(0)]
    for _ in range(n):
        s = (
            [Fraction(0)]
            + [theta * s[i + 1] + (1 - theta) * s[i - 1] for i in range(1, 2 * a)]
            + [Fraction(0)]
        )
    return s[a]


def best_response_cost(root, lam1: Fraction, lam2: Fraction) -> Fraction:
    """Cheapest Lagrangian cost a tester can reach against the tree's own
    adversary arrows, re-deciding stop-or-continue freely at every history.

    The adversary plays the extracted transition probabilities (including
    the limiting-direction arrows on zero-mass branches); the tester pays
    one sample per unit of adversary mass on continuing, and the absolute
    stopping risk ``min(lam1*z1, lam2*z2)`` on stopping — error terms weigh
    the hypothesis likelihoods, not the adversary, so they do *not* scale
    with the entering mass and the recursion must carry it.  Histories that
    share a node object and a mass (extraction shares a node only between
    histories entering it with the same mass) share their value.  A design is a best response exactly when this equals its own
    Lagrangian cost.
    """
    memo: dict[tuple[int, Fraction], Fraction] = {}

    def w(node, m: Fraction) -> Fraction:
        key = (id(node), m)
        v = memo.get(key)
        if v is not None:
            return v
        g = stopping_risk(node.state.z1, node.state.z2, lam1, lam2)
        if node.p_continue == 0 or node.children is None:
            v = g  # the adversary's arrows end here; stopping is forced
        else:
            cont = m + sum(
                w(ch, m * node.lfd_probs[x])
                for x, ch in enumerate(node.children)
            )
            v = min(g, cont)
        memo[key] = v
        return v

    return w(root, Fraction(1))


def kwt_fraction_induction(
    theta1: Fraction,
    theta2: Fraction,
    lam1: Fraction,
    lam2: Fraction,
    horizon: int,
    p0: tuple[Fraction, Fraction],
) -> tuple[dict[tuple[int, int], str], tuple[tuple[int, int, int], ...]]:
    """Modified Kiefer-Weiss backward induction in plain ``Fraction``s.

    The value at (n samples, m successes) is min(stop, continue) with
    stop = min(lam1*z1, lam2*z2) over the path likelihoods z1, z2 and
    continue = P0(path) + V(n+1, m+1) + V(n+1, m), straight from the
    definition, with every rational built afresh.  The package scales
    everything to integers over one common denominator instead, so equal
    actions are evidence that the scaling is exact.  Returns the actions
    and the (n, min T_n, max T_n) bounds of the reachable continue region.
    """
    actions: dict[tuple[int, int], str] = {}
    value: dict[tuple[int, int], Fraction] = {}
    for n in range(horizon, -1, -1):
        for m in range(n + 1):
            r1 = lam1 * theta1**m * (1 - theta1) ** (n - m)
            r2 = lam2 * theta2**m * (1 - theta2) ** (n - m)
            stop = min(r1, r2)
            cont = None
            if n < horizon:
                cont = (p0[1] ** m * p0[0] ** (n - m)
                        + value[(n + 1, m + 1)] + value[(n + 1, m)])
            if cont is None or stop <= cont:
                value[(n, m)] = stop
                actions[(n, m)] = (
                    "H1" if r2 < r1 else "H2" if r1 < r2 else "randomized"
                )
            else:
                value[(n, m)] = cont
                actions[(n, m)] = "continue"
    bounds = []
    reachable = {0}
    for n in range(horizon):
        live = sorted(m for m in reachable if actions[(n, m)] == "continue")
        if not live:
            break
        bounds.append((n, 2 * live[0] - n, 2 * live[-1] - n))
        reachable = {m + step for m in live for step in (0, 1)}
    return actions, tuple(bounds)
