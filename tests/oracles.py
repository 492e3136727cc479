"""Independent brute-force oracles used across the test suite.

Everything here recomputes quantities the package produces, by a *different*
method (grid search, direct enumeration, closed forms, plain dynamic
programs), so agreement is
evidence rather than tautology.  Oracles favour clarity over speed.

``FracPwl``, ``FracSplit``, the ``frac_*`` functions,
``kwt_analyze_fraction``, ``sprt_first_step_fraction`` and
``fsst_p_h1_fraction`` keep the package's earlier ``Fraction``
implementations of the PWL algebra, the design recursion, the simulation
draw, ``kwt_analyze``, the SPRT first-step solve and the FSST tails;
``kwt_matched_per_lambda`` keeps the earlier matched search, which solved
``kwt_design`` afresh at every lambda, and ``kwt_pass_per_state`` the
earlier Kiefer-Weiss backward pass over every state of the grid.  They
compute the same things in another representation; the package's integer
code must agree with them exactly.
Likewise ``cost_table_text``, ``tree_json_text`` and ``tree_dot_text`` keep
the package's earlier exporters, which built one dict per record and
serialized it with ``json.dumps``; the direct writers must match their bytes.
``frac_eval_base``, ``frac_evaluate`` and ``frac_verify_equalization`` keep
the policy layer's earlier ``Fraction`` evaluation pass, probe contraction
and equalization fold, and ``frac_extract_tree`` its earlier extraction over
``Fraction`` split maps; the integer versions must match them exactly.
``simulate_loop`` keeps the earlier simulation loop, which cross-multiplied
each draw with the node's probabilities; ``simulate`` must report the same.
``decimal_places_text`` keeps ``decimal_str``'s earlier fixed-point branch,
which let ``Decimal`` format the rounded integer.
This module may import ``dataclasses``: no command loads it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, product
from math import comb, lcm

from npkw.bellman import ExtractionError, child_counts
from npkw.policy import Decision, SimReport
from npkw.pwl import PwlConcave, SuperDiff, pwl_eval


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
    ``root`` is a tree that carries the LFD at each node: a ``PathNode``
    tree of ``lfd_tree`` or a :func:`frac_extract_tree`.

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


def frac_draw(u: int, pmf: tuple[Fraction, ...]) -> int:
    """The symbol a 64-bit draw ``u`` selects from ``pmf``: the first x with
    u / 2**64 below the running sum, all in ``Fraction``s."""
    v = Fraction(u, 2**64)
    acc = Fraction(0)
    for x, p in enumerate(pmf):
        acc += p
        if v < acc:
            return x
    return len(pmf) - 1


def kwt_analyze_fraction(design, theta: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(E[tau], P(decide H1), P(decide H2)) of a Kiefer-Weiss design at
    Bernoulli(theta), pushing the path mass forward in ``Fraction``s.

    The package pushes integer path counts and sums over one scale instead;
    this is the direct forward iteration it replaced.
    """
    th = Fraction(theta)
    reach: dict[int, Fraction] = {0: Fraction(1)}
    e_tau = p_h1 = p_h2 = Fraction(0)
    for n in range(design.horizon + 1):
        nxt: dict[int, Fraction] = {}
        for m, mass in reach.items():
            act = design.actions[(n, m)]
            if act == "continue":
                e_tau += mass
                nxt[m + 1] = nxt.get(m + 1, Fraction(0)) + mass * th
                nxt[m] = nxt.get(m, Fraction(0)) + mass * (1 - th)
            elif act == "H1":
                p_h1 += mass
            elif act == "H2":
                p_h2 += mass
            else:
                p_h1 += mass / 2
                p_h2 += mass / 2
        reach = nxt
    assert not reach, "mass survived past the horizon"
    return e_tau, p_h1, p_h2


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


def sprt_first_step_fraction(design, theta: Fraction,
                             source) -> dict[int, Fraction]:
    """Solve v(t) = source(t) + theta*v(t+1) + (1-theta)*v(t-1) on the
    transient states of an SPRT with v(lower) = v(upper) = 0, in
    ``Fraction``s, for every t from lower to upper.

    One forward sweep carries v(t) as an affine function a(t)*s + b(t) of
    the unknown s = v(lower+1); the package runs the same sweep on integer
    numerators over powers of theta's numerator instead.
    """
    lo, hi = design.lower, design.upper
    a = {lo: Fraction(0), lo + 1: Fraction(1)}
    b = {lo: Fraction(0), lo + 1: Fraction(0)}
    for t in range(lo + 1, hi):
        a[t + 1] = (a[t] - (1 - theta) * a[t - 1]) / theta
        b[t + 1] = (b[t] - source(t) - (1 - theta) * b[t - 1]) / theta
    s = -b[hi] / a[hi]
    return {t: a[t] * s + b[t] for t in range(lo, hi + 1)}


def fsst_p_h1_fraction(design, theta: Fraction) -> Fraction:
    """P(decide H1) of a fixed-sample test at Bernoulli(theta): the binomial
    PMF in ``Fraction``s, summed from k, plus half the tie count's mass."""
    pmf = [comb(design.n, s) * theta**s * (1 - theta) ** (design.n - s)
           for s in range(design.n + 1)]
    p = sum(pmf[design.k:], Fraction(0))
    if design.tie_count is not None:
        p += pmf[design.tie_count] / 2
    return p


def kwt_matched_per_lambda(model, alpha1, alpha2, horizon: int = 80):
    """The matched Kiefer-Weiss search with ``kwt_design`` solved afresh at
    each lambda = 2, 4, 8, ...; the package builds the lambda-free tables
    once and runs only the backward pass per lambda.  Returns the design
    and model of the first lambda whose errors are at most the targets
    (the caller picks targets that some lambda meets)."""
    from npkw.baselines import kwt_analyze, kwt_design
    from npkw.bellman import make_model

    t1, t2 = model.p1[1], model.p2[1]
    half = (Fraction(1, 2), Fraction(1, 2))
    lam = 2
    while True:
        probe = make_model(list(model.p1), list(model.p2),
                           lam1=lam, lam2=lam, horizon=horizon)
        design = kwt_design(probe, half)
        if (kwt_analyze(design, probe, t1)[2] <= alpha1
                and kwt_analyze(design, probe, t2)[1] <= alpha2):
            return design, probe
        lam *= 2


def kwt_pass_per_state(tables, p0, lam1: Fraction, lam2: Fraction):
    """``_kwt_pass`` over every state of the grid: the package's earlier
    integer backward pass, which compares both stop risks with the value of
    sampling on at each of the grid's states.  The package computes values
    only on each row's band of states that can continue and reads the
    stop labels off runs around each row's crossing.  Reads only the rows
    of ``tables`` (from ``_kwt_tables``), not its memo."""
    from npkw.baselines import KwtDesign

    rows = tables[0]
    horizon = len(rows) - 1
    lam_den = lcm(lam1.denominator, lam2.denominator)
    l1 = lam1.numerator * (lam_den // lam1.denominator)
    l2 = lam2.numerator * (lam_den // lam2.denominator)
    actions: dict[tuple[int, int], str] = {}
    later: list[int] = []  # scaled values of the states at n + 1
    for n in range(horizon, -1, -1):
        risk1, risk2, mass = rows[n]
        # the value of sampling on; None at the horizon, where all stop
        conts = ([None] * (n + 1) if n == horizon else
                 [lam_den * g + u + v for g, u, v in zip(mass, later, later[1:])])
        row = []
        for m, (r1, r2, cont) in enumerate(zip(risk1, risk2, conts)):
            r1 *= l1  # paid when deciding H2
            r2 *= l2  # paid when deciding H1
            if r1 < r2:
                stop, act = r1, "H2"
            elif r2 < r1:
                stop, act = r2, "H1"
            else:
                stop, act = r1, "randomized"
            if cont is not None and cont < stop:
                stop, act = cont, "continue"
            row.append(stop)
            actions[n, m] = act
        later = row
    bounds = []
    frontier = {0}
    for n in range(horizon):
        live = sorted(m for m in frontier if actions[(n, m)] == "continue")
        if not live:
            break
        bounds.append((n, 2 * live[0] - n, 2 * live[-1] - n))
        frontier = {m for base in live for m in (base, base + 1)}
    return KwtDesign(horizon=horizon, p0=p0, actions=actions,
                     continue_bounds=tuple(bounds))


# ---------------------------------------------------------------------------
# the PWL algebra and the design recursion in plain Fractions
# ---------------------------------------------------------------------------
#
# The package stores each cost slice as integers over one scale.  What
# follows is the same algebra written directly over ``Fraction`` widths,
# the representation the package used before; the tests check that every
# public function and the whole recursion agree with it exactly.


@dataclass(frozen=True)
class FracPwl:
    """Concave nondecreasing PWL function with ``Fraction`` fields."""

    value_at_zero: Fraction
    segments: tuple[tuple[int, Fraction], ...]
    domain_upper: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value_at_zero, Fraction) or self.value_at_zero < 0:
            raise ValueError("value_at_zero must be a nonnegative Fraction")
        if not isinstance(self.domain_upper, Fraction) or self.domain_upper < 0:
            raise ValueError("domain_upper must be a nonnegative Fraction")
        total = Fraction(0)
        prev_slope = None
        for slope, width in self.segments:
            if not isinstance(slope, int) or slope < 0:
                raise ValueError("slopes must be nonnegative integers")
            if not isinstance(width, Fraction) or width <= 0:
                raise ValueError("segment widths must be positive Fractions")
            if prev_slope is not None and slope >= prev_slope:
                raise ValueError("slopes must be strictly decreasing")
            prev_slope = slope
            total += width
        if total != self.domain_upper:
            raise ValueError("segment widths do not sum to domain_upper")


def frac_of(f: PwlConcave) -> FracPwl:
    """The oracle form of a package slice, read through its public views."""
    return FracPwl(f.value_at_zero, f.segments, f.domain_upper)


def frac_eval(f: FracPwl, t: Fraction) -> Fraction:
    x = Fraction(t)
    if x < 0 or x > f.domain_upper:
        raise ValueError(f"{x} outside domain [0, {f.domain_upper}]")
    v = f.value_at_zero
    for slope, width in f.segments:
        if x <= width:
            return v + slope * x
        v += slope * width
        x -= width
    return v


def frac_superdiff(f: FracPwl, t: Fraction) -> SuperDiff:
    x = Fraction(t)
    if x < 0 or x > f.domain_upper:
        raise ValueError(f"{x} outside domain [0, {f.domain_upper}]")
    if not f.segments:
        return SuperDiff(0, 0)
    first = f.segments[0][0]
    if x == 0:
        return SuperDiff(first, first)
    acc = Fraction(0)
    for i, (slope, width) in enumerate(f.segments):
        acc += width
        if x < acc:
            return SuperDiff(slope, slope)
        if x == acc:
            if i + 1 < len(f.segments):
                return SuperDiff(f.segments[i + 1][0], slope)
            return SuperDiff(0, slope)
    raise AssertionError("unreachable: domain scan fell through")


def frac_slope_right(f: FracPwl, t: Fraction) -> int:
    x = Fraction(t)
    if x < 0 or x > f.domain_upper:
        raise ValueError(f"{x} outside domain [0, {f.domain_upper}]")
    if not f.segments:
        return 0
    if x == f.domain_upper:
        return f.segments[-1][0]
    acc = Fraction(0)
    for slope, width in f.segments:
        acc += width
        if x < acc:
            return slope
    raise AssertionError("unreachable: domain scan fell through")


def frac_crossing(f: FracPwl, c: Fraction) -> Fraction | None:
    level = Fraction(c)
    if f.value_at_zero >= level:
        return Fraction(0)
    t0 = Fraction(0)
    v = f.value_at_zero
    for slope, width in f.segments:
        end = v + slope * width
        if end >= level:
            return t0 + Fraction(level - v, slope)
        v = end
        t0 += width
    return None


def frac_cap(f: FracPwl, c: Fraction) -> FracPwl:
    level = Fraction(c)
    if level < 0:
        raise ValueError("cap level must be nonnegative")
    t_star = frac_crossing(f, level)
    if t_star is None:
        return f
    if t_star == 0:
        segs = [(0, f.domain_upper)] if f.domain_upper > 0 else []
        return FracPwl(level, tuple(segs), f.domain_upper)
    new: list[tuple[int, Fraction]] = []
    remaining = t_star
    for slope, width in f.segments:
        take = min(width, remaining)
        new.append((slope, take))
        remaining -= take
        if remaining == 0:
            break
    tail = f.domain_upper - t_star
    if tail > 0:
        if new and new[-1][0] == 0:
            new[-1] = (0, new[-1][1] + tail)
        else:
            new.append((0, tail))
    return FracPwl(f.value_at_zero, tuple(new), f.domain_upper)


def frac_lift(f: FracPwl) -> FracPwl:
    return FracPwl(
        f.value_at_zero,
        tuple((slope + 1, width) for slope, width in f.segments),
        f.domain_upper,
    )


@dataclass(frozen=True)
class FracSplit:
    n_operands: int
    entries: tuple[tuple[int, int, Fraction], ...]
    target: Fraction


def frac_supconv(fs: list[FracPwl], target_domain) -> tuple[FracPwl, FracSplit]:
    target = Fraction(target_domain)
    if target < 0:
        raise ValueError("target_domain must be nonnegative")
    if target > sum((f.domain_upper for f in fs), Fraction(0)):
        raise ValueError("target_domain exceeds total operand domain")
    pool = [
        (slope, op, width)
        for op, f in enumerate(fs)
        for slope, width in f.segments
    ]
    pool.sort(key=lambda e: (-e[0], e[1]))
    value0 = sum((f.value_at_zero for f in fs), Fraction(0))
    segs: list[tuple[int, Fraction]] = []
    room = target
    for slope, _op, width in pool:
        if room == 0:
            break
        take = min(width, room)
        if segs and segs[-1][0] == slope:
            segs[-1] = (slope, segs[-1][1] + take)
        else:
            segs.append((slope, take))
        room -= take
    entries = tuple((op, slope, width) for slope, op, width in pool)
    return FracPwl(value0, tuple(segs), target), FracSplit(len(fs), entries, target)


def frac_split_at(sm: FracSplit, t: Fraction) -> tuple[Fraction, ...]:
    x = Fraction(t)
    if x < 0 or x > sm.target:
        raise ValueError(f"{x} outside [0, {sm.target}]")
    alloc = [Fraction(0)] * sm.n_operands
    i = 0
    n = len(sm.entries)
    while x > 0 and i < n:
        slope = sm.entries[i][1]
        j = i
        class_width = Fraction(0)
        while j < n and sm.entries[j][1] == slope:
            class_width += sm.entries[j][2]
            j += 1
        if x >= class_width:
            for op, _s, width in sm.entries[i:j]:
                alloc[op] += width
            x -= class_width
        else:
            share = x / class_width
            for op, _s, width in sm.entries[i:j]:
                alloc[op] += width * share
            x = Fraction(0)
        i = j
    if x != 0:
        raise AssertionError("split map shorter than its target")
    return tuple(alloc)


# ---------------------------------------------------------------------------
# the policy layer's earlier Fraction extraction
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FracNode:
    """A node of :func:`frac_extract_tree`: the fields of ``PolicyNode``,
    with ``z0`` and ``lfd_probs`` kept as Fractions."""

    state: object
    z0: Fraction
    e_enter: int
    e_continue: int | None
    p_continue: Fraction
    decision: Decision | None
    lfd_probs: tuple[Fraction, ...] | None
    children: tuple["FracNode", ...] | None
    sure_stop_state: bool

    @property
    def depth(self) -> int:
        return self.state.depth


def frac_extract_tree(table, max_depth: int | None = None) -> FracNode:
    """The policy extraction as the package wrote it over ``Fraction``
    split maps: every slope read, threshold comparison, allocation and LFD
    entry is a ``Fraction`` computation, and the nodes are hash-consed on
    ``(counts, z0, promise)``.  Each state's split map is the
    :class:`FracSplit` of :func:`frac_supconv` over the table's slices of
    its children, and its continuation slopes are read off the
    :func:`frac_lift` of that sup-convolution, so neither the solve's
    pools nor the mirror pairing are read.  Checks run in the package's
    order.  Where every cost slice is the lift of its merge below its
    threshold, as a solve leaves it, they raise the package's
    ``ExtractionError`` messages; the package reads the continuation
    slopes off the cost slices, this oracle off its own merges."""
    model = table.model
    k = model.alphabet_size
    memo: dict = {}
    merges: dict = {}

    def decision_of(state) -> Decision:
        lhs, rhs = model.lam1 * state.z1, model.lam2 * state.z2
        return (Decision.H1 if lhs > rhs else
                Decision.H2 if lhs < rhs else Decision.RANDOMIZED)

    def stop(state, z0, promised, sure_state) -> FracNode:
        if promised not in (None, 0):
            raise ExtractionError(
                f"state {state.counts}: parent promises {promised} remaining "
                "samples to a node that stops surely")
        return FracNode(state, z0, 0, None, Fraction(0), decision_of(state),
                        None, None, sure_state)

    def merge(counts) -> tuple[FracPwl, FracSplit]:
        """The lifted slice and the split map of a state."""
        got = merges.get(counts)
        if got is None:
            ops = [frac_of(table.rho[child_counts(counts, x)])
                   for x in range(k)]
            d_slice, sm = frac_supconv(ops, 1)
            got = merges[counts] = frac_lift(d_slice), sm
        return got

    def extract(counts, z0, promised) -> FracNode:
        key = (counts, z0, promised)
        if key not in memo:
            memo[key] = extract_node(counts, z0, promised)
        return memo[key]

    def extract_node(counts, z0, promised) -> FracNode:
        state = table.states[counts]
        if state.depth == model.horizon:
            return stop(state, z0, promised, True)
        z0_star = table.z0_star[counts]
        sure_state = z0_star == 0
        lifted, sm = merge(counts)
        if z0 > 0:
            if z0_star is not None and z0 > z0_star:
                return stop(state, z0, promised, sure_state)
            d_right = frac_slope_right(lifted, z0) - 1
            d_left = frac_superdiff(lifted, z0).hi - 1
            if z0 == z0_star:
                e_enter = 0 if promised is None else promised
                if e_enter == 0:
                    return stop(state, z0, None, sure_state)
                c = max(d_right, e_enter - 1)
                if c > d_left:
                    raise ExtractionError(
                        f"state {counts}: promise {e_enter} needs "
                        f"continuation slope {e_enter - 1}, outside "
                        f"[{d_right}, {d_left}]")
            else:
                if promised is None:
                    c = d_right
                else:
                    c = promised - 1
                    if not d_right <= c <= d_left:
                        raise ExtractionError(
                            f"state {counts}: sure-continue promise "
                            f"{promised} needs slope {c}, outside "
                            f"[{d_right}, {d_left}]")
                e_enter = 1 + c
        else:
            if promised is None or promised == 0:
                return stop(state, z0, promised, sure_state)
            e_enter = promised
            c = max(frac_slope_right(lifted, Fraction(0)) - 1, e_enter - 1)

        if c < 0:
            raise ExtractionError(
                f"state {counts}: continuation slope {c} at z0 = {z0} is "
                "below 0")
        e_continue = 1 + c
        sd = frac_superdiff(frac_of(table.rho[counts]), z0)
        if not (e_enter >= sd.lo if z0 == 0 else sd.lo <= e_enter <= sd.hi):
            raise ExtractionError(
                f"state {counts}: e_enter {e_enter} outside the "
                f"superdifferential [{sd.lo}, {sd.hi}] of the cost slice at "
                f"z0 = {z0}")

        p_continue = Fraction(e_enter, e_continue)
        alloc = frac_split_at(sm, z0)
        if z0 > 0:
            lfd = tuple(a / z0 for a in alloc)
        else:
            # the first slope class, shared in proportion to its widths
            weights = [Fraction(0)] * k
            for op, slope, width in sm.entries:
                if slope != sm.entries[0][1]:
                    break
                weights[op] += width
            total = sum(weights)
            lfd = tuple(w / total if total else Fraction(1, k)
                        for w in weights)
        children = None
        if max_depth is None or state.depth < max_depth:
            children = tuple(extract(child_counts(counts, x), alloc[x], c)
                             for x in range(k))
        return FracNode(
            state, z0, e_enter, e_continue, p_continue,
            None if e_enter == e_continue else decision_of(state), lfd,
            children, sure_state)

    return extract((0,) * k, Fraction(1), None)


def _frac_text(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _frac_slice_json(f: FracPwl) -> dict:
    return {
        "value_at_zero": _frac_text(f.value_at_zero),
        "domain_upper": _frac_text(f.domain_upper),
        "segments": [
            {"slope": s, "width": _frac_text(w)} for s, w in f.segments
        ],
    }


@dataclass(frozen=True)
class FracState:
    """One state of the Fraction recursion; ``d``, ``split`` and
    ``z0_star`` are None at the horizon."""

    z1: Fraction
    z2: Fraction
    g: Fraction
    rho: FracPwl
    d: FracPwl | None
    split: FracSplit | None
    z0_star: Fraction | None


def frac_recursion(p1, p2, lam1, lam2, horizon: int) -> dict:
    """The design recursion solved in Fractions: likelihoods are Fraction
    products and every slice a :class:`FracPwl`.  Maps each count vector to
    its :class:`FracState`."""
    p1 = tuple(Fraction(v) for v in p1)
    p2 = tuple(Fraction(v) for v in p2)
    lam1, lam2 = Fraction(lam1), Fraction(lam2)
    k = len(p1)

    def counts_at(n: int, k: int):
        if k == 1:
            yield (n,)
            return
        for first in range(n + 1):
            for rest in counts_at(n - first, k - 1):
                yield (first, *rest)

    out: dict[tuple[int, ...], FracState] = {}
    for n in range(horizon, -1, -1):
        for counts in counts_at(n, k):
            z1 = z2 = Fraction(1)
            for x, c in enumerate(counts):
                z1 *= p1[x] ** c
                z2 *= p2[x] ** c
            g = min(lam1 * z1, lam2 * z2)
            if n == horizon:
                out[counts] = FracState(
                    z1, z2, g, FracPwl(g, ((0, Fraction(1)),), Fraction(1)),
                    None, None, None)
                continue
            children = []
            for x in range(k):
                child = list(counts)
                child[x] += 1
                children.append(out[tuple(child)].rho)
            d_slice, sm = frac_supconv(children, 1)
            lifted = frac_lift(d_slice)
            out[counts] = FracState(z1, z2, g, frac_cap(lifted, g), d_slice,
                                    sm, frac_crossing(lifted, g))
    return out


def frac_recursion_json(p1, p2, lam1, lam2, horizon: int) -> str:
    """The cost-table text of :func:`frac_recursion`, with the records
    written field by field as ``cost_table_to_json_str`` documents them
    (states by depth then counts, sorted keys, indent 1)."""
    solved = frac_recursion(p1, p2, lam1, lam2, horizon)
    recs = [
        {"depth": sum(counts), "counts": list(counts),
         "z1": _frac_text(st.z1), "z2": _frac_text(st.z2),
         "g": _frac_text(st.g), "rho": _frac_slice_json(st.rho)}
        for counts, st in sorted(solved.items(),
                                 key=lambda item: (sum(item[0]), item[0]))
    ]
    blob = {
        "model": {
            "p1": [_frac_text(Fraction(v)) for v in p1],
            "p2": [_frac_text(Fraction(v)) for v in p2],
            "lambda1": _frac_text(Fraction(lam1)),
            "lambda2": _frac_text(Fraction(lam2)),
            "horizon": horizon,
        },
        "states": recs,
    }
    return json.dumps(blob, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# the exporters through intermediate dicts and json.dumps
# ---------------------------------------------------------------------------
#
# The package writes the cost table and the policy tree as text directly,
# formatting each distinct record once.  These builders produce the same
# documents the plain way: one dict per record (per virtual path of the
# tree), serialized with ``json.dumps(sort_keys=True, indent=1)``, and the
# DOT text node by node.  Rationals are reduced through ``Fraction`` rather
# than a gcd, and the decimal renderer is a copy, so the writers must match
# these byte for byte.

def _ratio_text(num: int, den: int) -> str:
    return _frac_text(Fraction(num, den))


def _int_slice_json(f: PwlConcave) -> dict:
    return {
        "value_at_zero": _ratio_text(f.v0, f.scale),
        "domain_upper": _ratio_text(f.upper, f.scale),
        "segments": [
            {"slope": s, "width": _ratio_text(w, f.scale)} for s, w in f.segs
        ],
    }


def cost_table_dict(table) -> dict:
    """The cost table as one dict: model header plus one record per state,
    states by (depth, counts)."""
    model = table.model
    recs = []
    for counts in sorted(table.states, key=lambda c: (sum(c), c)):
        st = table.states[counts]
        recs.append({
            "depth": st.depth,
            "counts": list(st.counts),
            "z1": _frac_text(st.z1),
            "z2": _frac_text(st.z2),
            "g": _frac_text(st.g),
            "rho": _int_slice_json(table.rho[counts]),
        })
    head = {
        "p1": [_frac_text(v) for v in model.p1],
        "p2": [_frac_text(v) for v in model.p2],
        "lambda1": _frac_text(model.lam1),
        "lambda2": _frac_text(model.lam2),
        "horizon": model.horizon,
    }
    return {"model": head, "states": recs}


def cost_table_text(table) -> str:
    return json.dumps(cost_table_dict(table), sort_keys=True, indent=1)


def tree_dict(root) -> dict:
    """Nested dict form of a policy tree, one dict per virtual node."""
    def conv(node) -> dict:
        return {
            "depth": node.depth,
            "counts": list(node.state.counts),
            "z0": _frac_text(node.z0),
            "e_enter": node.e_enter,
            "e_continue": node.e_continue,
            "p_continue": _frac_text(node.p_continue),
            "decision": node.decision.value if node.decision else None,
            "lfd": ([_frac_text(p) for p in node.lfd_probs]
                    if node.lfd_probs else None),
            "children": (
                [conv(ch) for ch in node.children]
                if node.children is not None else None
            ),
        }
    return conv(root)


def tree_json_text(root) -> str:
    return json.dumps(tree_dict(root), sort_keys=True, indent=1)


def _dec6(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(x.numerator) / Decimal(x.denominator)
        q = d.quantize(Decimal(1).scaleb(-6))
    return f"{q:f}"


def decimal_places_text(x: Fraction, places: int) -> str:
    """``decimal_str(x, places)`` as the package wrote it through
    ``Decimal``: round half-even once, then let ``Decimal`` place the
    point."""
    sign = "-" if x < 0 else ""
    q = round(abs(x) * 10**places)
    return f"{Decimal(f'{sign}{q}E-{places}'):f}"


_DOT_STOP_COLORS = {"H1": "#b3d1ff", "H2": "#ffbdbd", "randomized": "#e0c7f5"}


def tree_dot_text(root) -> str:
    """Graphviz text of a policy tree, formatted node by node in preorder."""
    lines = [
        "digraph policy {",
        '  node [shape=circle, style=filled, fontname="Helvetica"];',
        '  edge [fontname="Helvetica", fontsize=10];',
    ]
    counter = 0

    def emit(node) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        if node.p_continue == 0:
            color = _DOT_STOP_COLORS[node.decision.value]
            lines.append(f'  {name} [label="0", fillcolor="{color}"];')
            return name
        label = f"{node.e_enter}/{node.e_continue}"
        p_stop = 1 - node.p_continue
        level = 255 - int(round(96 * float(p_stop)))
        fill = f"#{level:02x}{level:02x}{level:02x}"
        lines.append(f'  {name} [label="{label}", fillcolor="{fill}"];')
        if node.children is not None:
            for x, child in enumerate(node.children):
                cname = emit(child)
                p = node.lfd_probs[x]
                lines.append(
                    f'  {name} -> {cname} [label="{_frac_text(p)} '
                    f'({_dec6(p)})"];'
                )
        return name

    emit(root)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the policy layer's earlier Fraction evaluation and equalization fold
# ---------------------------------------------------------------------------

def _frac_by_depth(root) -> list:
    """Unique nodes sorted by depth, after rejecting a display cut."""
    seen: set[int] = set()
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.p_continue > 0 and node.children is None:
            raise ValueError("tree was cut at a display depth limit")
        nodes.append(node)
        if node.children:
            stack.extend(reversed(node.children))
    return sorted(nodes, key=lambda n: n.depth)


def frac_eval_base(root):
    """(alpha1, alpha2, continuation weight, stopping weight), the weights
    per count vector, from one Fraction pass of survival products."""
    from npkw.policy import Decision, SimReport

    alpha1 = alpha2 = Fraction(0)
    cont_w: dict = {}
    stop_w: dict = {}
    srv = {id(root): Fraction(1)}
    for node in _frac_by_depth(root):
        sr = srv.get(id(node), Fraction(0))
        if sr == 0:
            continue
        p = node.p_continue
        counts = node.state.counts
        if p < 1:
            stopped = sr * (1 - p)
            stop_w[counts] = stop_w.get(counts, Fraction(0)) + stopped
            if node.decision is Decision.H2:
                alpha1 += node.state.z1 * stopped
            elif node.decision is Decision.H1:
                alpha2 += node.state.z2 * stopped
            elif node.decision is Decision.RANDOMIZED:
                alpha1 += node.state.z1 * stopped / 2
                alpha2 += node.state.z2 * stopped / 2
        if p > 0:
            step = sr * p
            cont_w[counts] = cont_w.get(counts, Fraction(0)) + step
            for child in node.children:
                srv[id(child)] = srv.get(id(child), Fraction(0)) + step
    return alpha1, alpha2, cont_w, stop_w


def frac_evaluate(root, probe):
    """``evaluate``'s report, contracting the probe in Fractions."""
    from npkw.policy import EvalReport

    pmf = tuple(Fraction(v) for v in probe)
    alpha1, alpha2, cont_w, stop_w = frac_eval_base(root)

    def mono(counts) -> Fraction:
        out = Fraction(1)
        for x, c in enumerate(counts):
            out *= pmf[x] ** c
        return out

    e_tau = sum((mono(c) * w for c, w in cont_w.items()), Fraction(0))
    stop_pmf: dict[int, Fraction] = {}
    for counts, weight in stop_w.items():
        like = mono(counts)
        if like > 0:
            d = sum(counts)
            stop_pmf[d] = stop_pmf.get(d, Fraction(0)) + like * weight
    assert sum(stop_pmf.values()) == 1
    return EvalReport(pmf, e_tau, alpha1, alpha2,
                      tuple(sorted(stop_pmf.items())))


def _weighted(node) -> tuple[bool, ...]:
    """The branches the adversary weights: a rule node's ``mass``, or the
    positive LFD entries of a node that carries the LFD (at zero mass, the
    limiting direction; no positive path reaches such a node, so the two
    readings give the same certificate)."""
    mass = getattr(node, "mass", None)
    return mass if mass is not None else tuple(p > 0 for p in node.lfd_probs)


def frac_verify_equalization(root):
    """``verify_equalization``'s certificate from a Fraction fold, with the
    offending paths found by the same pruned search in Fractions, over a
    rule DAG or a :func:`frac_extract_tree`."""
    from npkw.policy import EqualizationCertificate

    c_root = root.e_enter
    max_e: dict = {}
    eq: dict = {}
    n_paths: dict = {}
    n_pos: dict = {}
    for node in reversed(_frac_by_depth(root)):
        nid = id(node)
        p = node.p_continue
        if p == 0 or node.children is None:
            max_e[nid], eq[nid], n_paths[nid], n_pos[nid] = (
                Fraction(0), Fraction(0), 1, 1)
            continue
        kids = node.children
        positive = [ch for ch, w in zip(kids, _weighted(node)) if w]
        max_e[nid] = p * (1 + max(max_e[id(ch)] for ch in kids))
        n_paths[nid] = sum(n_paths[id(ch)] for ch in kids)
        vals = {eq[id(ch)] for ch in positive}
        eq[nid] = p * (1 + vals.pop()) \
            if len(vals) == 1 and None not in vals else None
        n_pos[nid] = sum(n_pos[id(ch)] for ch in positive)

    pos_equal = eq[id(root)] == c_root
    ok = pos_equal and max_e[id(root)] <= c_root
    found: list = []
    if not ok and max_e[id(root)] > c_root:
        node, path = root, []
        surv, acc = Fraction(1), Fraction(0)
        while node.p_continue > 0 and node.children is not None:
            surv *= node.p_continue
            acc += surv
            x = max(range(len(node.children)),
                    key=lambda i: max_e[id(node.children[i])])
            path.append(x)
            node = node.children[x]
        found.append((tuple(path), acc))
    stack = [] if ok else [(root, (), Fraction(1), Fraction(0))]
    while stack and len(found) < 8:
        node, path, surv, acc = stack.pop()
        surv = surv * node.p_continue
        acc = acc + surv
        if surv == 0 or node.children is None:
            if acc != c_root:
                found.append((path, acc))
            continue
        for x, (child, w) in enumerate(zip(node.children, _weighted(node))):
            if not w:
                continue
            v = eq[id(child)]
            if v is not None and acc + surv * v == c_root:
                continue
            stack.append((child, path + (x,), surv, acc))

    return EqualizationCertificate(
        c_root=c_root, passes=ok, max_path_expectation=max_e[id(root)],
        q0_path_expectations_equal=pos_equal, n_paths=n_paths[id(root)],
        n_q0_positive_paths=n_pos[id(root)], violating_paths=tuple(found),
    )


# ---------------------------------------------------------------------------
# simulation by cross-multiplication
# ---------------------------------------------------------------------------

_UNIT = 1 << 64


def _cumulative(pmf: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """Running sums of a PMF as integer numerators over one denominator."""
    den = lcm(*(p.denominator for p in pmf))
    return tuple(accumulate(p.numerator * (den // p.denominator)
                            for p in pmf)), den


def _pick(u: int, cum: tuple[int, ...], den: int) -> int:
    """The symbol a 64-bit draw ``u`` selects: the first x with
    u / 2**64 < cum[x] / den, compared as u * den < cum[x] * 2**64."""
    ud = u * den
    for x, c in enumerate(cum):
        if ud < c * _UNIT:
            return x
    return len(cum) - 1


def simulate_loop(root, trials: int, seed: int, strategy: str = "fixed",
                  pmf=None) -> SimReport:
    """``simulate`` as one loop that cross-multiplies every draw with the
    node's probabilities and tests the strategy at every step; the package
    compares each draw with an integer cutoff per node instead, consuming
    the draws in the same order.  The ``lfd`` strategy reads the LFD off
    the nodes, so it needs a tree that carries it, such as
    :func:`frac_extract_tree`."""
    k = len(root.state.counts)
    if strategy == "fixed":
        fixed_cum = _cumulative(tuple(Fraction(v) for v in pmf))
    stop_at: dict[int, tuple[int, int]] = {}
    lfd_cum: dict[int, tuple[tuple[int, ...], int]] = {}
    total_tau = max_tau = n_h1 = n_h2 = 0
    rng = random.Random(str(seed))
    for _ in range(trials):
        node = root
        steps = 0
        while True:
            test = stop_at.get(id(node))
            if test is None:
                p = node.p_continue
                test = stop_at[id(node)] = (p.denominator, p.numerator * _UNIT)
            if rng.getrandbits(64) * test[0] >= test[1]:
                d = node.decision
                if d is Decision.RANDOMIZED:
                    d = Decision.H1 if rng.getrandbits(64) < _UNIT // 2 else Decision.H2
                if d is Decision.H1:
                    n_h1 += 1
                else:
                    n_h2 += 1
                break
            if node.children is None:
                raise ValueError("tree was cut at a display depth limit")
            if strategy == "fixed":
                x = _pick(rng.getrandbits(64), *fixed_cum)
            elif strategy == "alternating":
                x = steps % k
            else:
                cum = lfd_cum.get(id(node))
                if cum is None:
                    cum = lfd_cum[id(node)] = _cumulative(node.lfd_probs)
                x = _pick(rng.getrandbits(64), *cum)
            node = node.children[x]
            steps += 1
        total_tau += steps
        max_tau = max(max_tau, steps)
    return SimReport(
        trials=trials, seed=seed, strategy=strategy,
        mean_sample_size=Fraction(total_tau, trials),
        freq_h1=Fraction(n_h1, trials), freq_h2=Fraction(n_h2, trials),
        max_sample_size=max_tau,
    )


# ---------------------------------------------------------------------------
# the LFD's range and support over a tree that carries the LFD
# ---------------------------------------------------------------------------

def frac_lfd_range(root, symbol: int = 1) -> tuple[Fraction, Fraction]:
    """``lfd_range`` over every distinct node of a :func:`frac_extract_tree`:
    the least and the largest LFD probability of ``symbol`` strictly
    between 0 and 1, at nodes entered with positive mass that may
    continue."""
    probs = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.lfd_probs is not None and node.p_continue > 0 and node.z0 > 0:
            if 0 < node.lfd_probs[symbol] < 1:
                probs.append(node.lfd_probs[symbol])
        stack.extend(node.children or ())
    if not probs:
        raise ValueError("empty tree: no randomized transitions to range over")
    return min(probs), max(probs)


def frac_lfd_support(root, model) -> tuple[bool, tuple[int, ...], set]:
    """``verify_lfd_support`` path by path over a :func:`frac_extract_tree`:
    whether it passes, the mutual support, and every history at which the
    adversary plays with positive mass and leaves a support symbol whose
    child may continue unweighted, or weights a symbol outside the support
    while some child may continue."""
    support = tuple(x for x in range(model.alphabet_size)
                    if model.p1[x] > 0 and model.p2[x] > 0)
    bad = set()
    stack = [(root, ())]
    while stack:
        node, path = stack.pop()
        if node.p_continue == 0:
            continue
        if node.z0 > 0:
            lfd = node.lfd_probs
            starved = any(lfd[x] == 0 and not node.children[x].sure_stop_state
                          for x in support)
            outside = any(q > 0 for x, q in enumerate(lfd) if x not in support)
            if starved or (outside and not all(
                    ch.sure_stop_state for ch in node.children)):
                bad.add(path)
        stack.extend((ch, path + (x,)) for x, ch in enumerate(node.children))
    return not bad, support, bad
