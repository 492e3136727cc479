"""Finite-horizon minimax recursion for the sequential design problem.

The design problem: observe iid symbols from a finite alphabet of size K,
stop at some time and accept one of two simple hypotheses P1 / P2, while an
adversary picks the sampling distribution to maximize expected sample size.
The figure of merit is

    worst-case E[sample size]  +  lambda1 * alpha1  +  lambda2 * alpha2,

and the backward recursion tracks, per count history, the optimal cost as a
function of the adversary's likelihood z0 — a concave nondecreasing PWL
function of z0 with integer slopes, handled exactly by :mod:`npkw.pwl`.

For each state (depth n, count vector) with per-hypothesis likelihoods
z1, z2 the recursion is

    rho_n(z0) = min( g,  z0 + d_n(z0) ),        g = min(lam1*z1, lam2*z2),
    d_n = sup-convolution over symbols x of rho_{n+1} at the child counts,

with rho at the horizon equal to the stopping risk g.  The sup-convolution
is where the adversary's one-step choice is optimized out: allocating a_x of
the current likelihood z0 to symbol x corresponds to the adversary placing
probability a_x / z0 on x.

A model is mirror-symmetric when lam1 == lam2 and an involution sigma of
the alphabet has p2[x] = p1[sigma(x)] (the coin 0.8 vs 0.2 with equal
weights, where sigma swaps the two symbols).  Then the count vector c and
its mirror, with counts c[sigma(y)], swap z1 and z2, so they have the same
g, rho, d and threshold, and the recursion solves each mirror pair once.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, floor, gcd, lcm, log
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .pwl import (
    PwlConcave,
    RationalLike,
    merge_scaled,
    pwl,
    rat,
    restrict,
)
# the benchmark's tracer wraps these at these names; the solve calls none
from .pwl import cap_min_const, crossing_point, supconv  # noqa: F401

_SLOPE = itemgetter(0)


class ExtractionError(ValueError):
    """The cost table disagrees with its model or with the policy laws — a
    genuine bug upstream, or a table edited after it was written."""


class NominalModel:
    """The two simple hypotheses, error weights and horizon.

    Attributes:
        p1: PMF of the first hypothesis on the alphabet {0, ..., K-1}.
        p2: PMF of the second hypothesis; must differ from p1.
        lam1: weight on alpha1 = P_{P1}(accept the second hypothesis).
        lam2: weight on alpha2 = P_{P2}(accept the first hypothesis).
        horizon: hard truncation depth N >= 1.

    Instances are immutable and validated on construction.  Two models are
    ``==`` (and hash equal) when their five fields are; a model equals no
    other type.
    """

    __slots__ = ("p1", "p2", "lam1", "lam2", "horizon")

    p1: tuple[Fraction, ...]
    p2: tuple[Fraction, ...]
    lam1: Fraction
    lam2: Fraction
    horizon: int

    def __init__(self, p1: tuple[Fraction, ...], p2: tuple[Fraction, ...],
                 lam1: Fraction, lam2: Fraction, horizon: int) -> None:
        k = len(p1)
        if k < 2 or len(p2) != k:
            raise ValueError("need two PMFs of equal length >= 2")
        for p in (p1, p2):
            if any(not isinstance(v, Fraction) or v < 0 for v in p):
                raise ValueError("PMF entries must be nonnegative Fractions")
            if sum(p) != 1:
                raise ValueError("PMF must sum to exactly 1")
        if p1 == p2:
            raise ValueError("the two hypotheses must differ")
        if lam1 <= 0 or lam2 <= 0:
            raise ValueError("error weights must be positive")
        # exactly an int: a table header's true, 2.5 or "7" is no horizon
        if type(horizon) is not int or horizon < 1:
            raise ValueError(
                f"horizon must be an integer >= 1, not {horizon!r}")
        init = object.__setattr__
        init(self, "p1", p1)
        init(self, "p2", p2)
        init(self, "lam1", lam1)
        init(self, "lam2", lam2)
        init(self, "horizon", horizon)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.p1, self.p2, self.lam1, self.lam2, self.horizon

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"NominalModel(p1={self.p1!r}, p2={self.p2!r}, "
                f"lam1={self.lam1!r}, lam2={self.lam2!r}, "
                f"horizon={self.horizon!r})")

    def __reduce__(self) -> tuple:
        return NominalModel, self._key()

    @property
    def alphabet_size(self) -> int:
        return len(self.p1)


def make_model(
    p1: list[RationalLike],
    p2: list[RationalLike],
    lam1: RationalLike,
    lam2: RationalLike,
    horizon: int,
) -> NominalModel:
    """Exact-converting constructor for :class:`NominalModel`."""
    return NominalModel(
        tuple(rat(v) for v in p1),
        tuple(rat(v) for v in p2),
        rat(lam1),
        rat(lam2),
        horizon,
    )


def bernoulli_model(
    theta1: RationalLike,
    theta2: RationalLike,
    lam1: RationalLike,
    lam2: RationalLike,
    horizon: int,
) -> NominalModel:
    """Two Bernoulli hypotheses on {0, 1}; symbol 1 is a success."""
    t1, t2 = rat(theta1), rat(theta2)
    for t in (t1, t2):
        if not 0 < t < 1:
            raise ValueError("success probabilities must lie strictly in (0, 1)")
    return make_model([1 - t1, t1], [1 - t2, t2], lam1, lam2, horizon)


class DesignState(NamedTuple):
    """A count history: depth n and per-symbol counts summing to n.

    z1, z2 are the likelihoods of the counts under the two hypotheses and
    g = min(lam1*z1, lam2*z2) is the risk of stopping now with the better
    decision.  Symbol order within the counts does not matter for z1/z2/g
    (the hypotheses are iid), so states are indexed by the count vector.

    The three are kept as the integers :func:`_state_maker` makes them
    from: z1 and z2 are ``z1_num / den`` and ``z2_num / den`` with
    den = D**n, and g is ``g_num / g_den`` with g_den = L * D**n (D and L
    as there), none of them reduced.  The properties ``z1``, ``z2`` and
    ``g`` are their ``Fraction`` views.
    """

    depth: int
    counts: tuple[int, ...]
    z1_num: int
    z2_num: int
    g_num: int
    den: int
    g_den: int

    @property
    def z1(self) -> Fraction:
        return Fraction(self.z1_num, self.den)

    @property
    def z2(self) -> Fraction:
        return Fraction(self.z2_num, self.den)

    @property
    def g(self) -> Fraction:
        return Fraction(self.g_num, self.g_den)


def _state_maker(model: NominalModel,
                 depth: int) -> Callable[[tuple[int, ...]], DesignState]:
    """A builder of the states with at most ``depth`` samples, from integer
    power tables.

    With D the lcm of the denominators of both PMFs, every probability is
    an integer over D, so a likelihood at depth n is a product of table
    entries over D**n; with L the lcm of the lambda denominators the
    stopping risk is min(l1*z1, l2*z2) over L * D**n.  Nothing is reduced.
    """
    den = lcm(*(v.denominator for v in model.p1 + model.p2))
    lam_den = lcm(model.lam1.denominator, model.lam2.denominator)
    l1 = model.lam1.numerator * (lam_den // model.lam1.denominator)
    l2 = model.lam2.numerator * (lam_den // model.lam2.denominator)

    def powers(p: Fraction) -> list[int]:
        base = p.numerator * (den // p.denominator)
        out = [1]
        for _ in range(depth):
            out.append(out[-1] * base)
        return out

    pow1 = [powers(v) for v in model.p1]
    pow2 = [powers(v) for v in model.p2]
    den_pow = powers(Fraction(1))  # den_pow[n] = D**n
    g_den_pow = [lam_den * d for d in den_pow]

    def make(counts: tuple[int, ...]) -> DesignState:
        z1 = z2 = 1
        for x, c in enumerate(counts):
            z1 *= pow1[x][c]
            z2 *= pow2[x][c]
        n = sum(counts)
        return DesignState(n, counts, z1, z2, min(l1 * z1, l2 * z2),
                           den_pow[n], g_den_pow[n])

    return make


def _counts_at_depth(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All count vectors over k symbols summing to n, lexicographic."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _counts_at_depth(k - 1, n - first):
            yield (first, *rest)


def build_states(model: NominalModel) -> dict[int, list[DesignState]]:
    """Per-depth lists of states, depth 0..horizon, lexicographic counts.

    Depth n holds C(n + K - 1, K - 1) states (count vectors, not histories);
    e.g. K = 2 at depth 21 gives 22 states.  In a mirror-symmetric model
    (see :func:`_mirror`) a state whose mirror comes first takes the
    mirror's z1 and z2 swapped and its g, which lam1 == lam2 keeps.
    """
    return _paired_states(model, _mirror(model))[0]


def _paired_states(model: NominalModel, sigma: tuple[int, ...] | None
                   ) -> tuple[dict[int, list[DesignState]],
                              dict[tuple[int, ...], tuple[int, ...]]]:
    """:func:`build_states` for the model's mirror ``sigma`` and, from the
    same pass, the map of each state whose mirror comes first in
    lexicographic order to that mirror (empty when ``sigma`` is None)."""
    out: dict[int, list[DesignState]] = {}
    twins: dict[tuple[int, ...], tuple[int, ...]] = {}
    k = model.alphabet_size
    make = _state_maker(model, model.horizon)
    for n in range(model.horizon + 1):
        made: dict[tuple[int, ...], DesignState] = {}
        for c in _counts_at_depth(k, n):
            if sigma is not None:
                mirror = tuple(c[y] for y in sigma)
                if mirror < c:
                    st = made[mirror]
                    made[c] = DesignState(n, c, st.z2_num, st.z1_num,
                                          st.g_num, st.den, st.g_den)
                    twins[c] = mirror
                    continue
            made[c] = make(c)
        states = list(made.values())
        assert len(states) == comb(n + k - 1, k - 1)
        out[n] = states
    return out, twins


class CostTable:
    """Output of the backward recursion.

    Per count vector: the optimal cost slice ``rho`` (a PWL function of the
    adversary likelihood z0 on [0, 1]).  For internal states (depth <
    horizon) additionally the stopping threshold ``z0_star``, where the
    lift z0 + d(z0) of the children's sup-convolution d crosses g (None:
    the cap never binds on [0, 1]), so ``rho`` is the lift below it, and
    the merge record ``(scale, pool)`` in ``pools``: the sorted pool of
    operand segments over its scale, whose slope classes are d's slopes.
    Extraction reads a record only through its class table,
    :func:`~npkw.pwl.slope_classes`, built once per merged state, from
    which :func:`~npkw.pwl.split_at` reads the split of z0.  ``d`` is a
    read-only property that merges the children again on each read.  The
    table holds only the dicts the solve filled in, so it pickles.

    In a mirror-symmetric model (see :func:`_mirror`) ``twins`` maps each
    state whose mirror comes first in lexicographic order to that mirror.
    The two share one ``rho`` and one ``z0_star`` object (both immutable),
    and one ``d`` within a read.  Only the mirror that comes first has a
    pool.  The other's would be that pool with every operand index mapped
    through ``sigma`` and the entries re-sorted by (-slope, operand): the
    same slope classes with the operands relabelled, so its allocation to
    symbol x is its partner's to sigma(x).
    """

    def __init__(
        self,
        model: NominalModel,
        states: dict[tuple[int, ...], DesignState],
        rho: dict[tuple[int, ...], PwlConcave],
        z0_star: dict[tuple[int, ...], Fraction | None],
        pools: dict[tuple[int, ...], tuple[int, list[tuple[int, int, int]]]],
        twins: dict[tuple[int, ...], tuple[int, ...]],
        sigma: tuple[int, ...] | None,
    ) -> None:
        self.model = model
        self.states = states
        self.rho = rho
        self.z0_star = z0_star
        self.pools = pools
        self.twins = twins
        self.sigma = sigma

    @property
    def d(self) -> dict[tuple[int, ...], PwlConcave]:
        """The continuation slice d per internal state, merged again from
        the children's slices; a mirror state shares its partner's."""
        made: dict[tuple[int, ...], PwlConcave] = {}
        for counts in self.z0_star:
            twin = self.twins.get(counts)
            if twin is not None:
                made[counts] = made[twin]
                continue
            fs = [self.rho[child_counts(counts, x)]
                  for x in range(self.model.alphabet_size)]
            scale = self.pools[counts][0]
            v0, segs, _ = merge_scaled(fs, [scale // f.scale for f in fs],
                                       scale, scale)
            made[counts] = PwlConcave.reduced(scale, v0, segs, scale)
        return made

    def root_value(self) -> Fraction:
        """rho(1) at the empty history: the minimax cost of the design."""
        root = (0,) * self.model.alphabet_size
        return self.rho[root](1)


def child_counts(counts: tuple[int, ...], x: int) -> tuple[int, ...]:
    c = list(counts)
    c[x] += 1
    return tuple(c)


def _mirror(model: NominalModel) -> tuple[int, ...] | None:
    """The involution sigma of the alphabet with p2[x] = p1[sigma(x)], as
    the tuple of sigma(0), ..., sigma(K-1), or None unless lam1 == lam2 and
    one exists.  Each symbol x is paired with an unused symbol y where
    (p1y, p2y) = (p2x, p1x); a symbol with p1x == p2x maps to itself."""
    if model.lam1 != model.lam2:
        return None
    unused: dict[tuple[Fraction, Fraction], list[int]] = {}
    for x in reversed(range(model.alphabet_size)):
        unused.setdefault((model.p1[x], model.p2[x]), []).append(x)
    sigma = list(range(model.alphabet_size))
    for x, (a, b) in enumerate(zip(model.p1, model.p2)):
        if a < b:
            partners = unused.get((b, a))
            if not partners:
                return None
            y = partners.pop()
            sigma[x], sigma[y] = y, x
    if any(model.p2[x] != model.p1[y] for x, y in enumerate(sigma)):
        return None  # a symbol with p1x > p2x was left unpaired
    return tuple(sigma)


def _merge_step(
    fs: list[PwlConcave], mults: list[int], scale: int, target: int,
    cap_num: int, cap_den: int,
) -> tuple[Fraction | None, PwlConcave, list[tuple[int, int, int]]]:
    """One state's step in one walk: merge the operands as
    :func:`~npkw.pwl.merge_scaled` does up to ``target`` over ``scale``,
    lift the merge to t + merge(t) and cap the lift at the level
    ``cap_num / cap_den``, integers with ``cap_num >= 0 < cap_den`` in any
    terms.

    The walk goes down the sorted pool once, adding one to each slope,
    and stops where the lift crosses the cap: the slice is cut there and
    continued flat to ``target``, then put over the lcm of ``scale`` and
    the crossing's denominator and reduced once.  A merge that already
    reaches the cap at 0 is that constant, with no walk.  Returns the
    crossing (None: the cap is never reached), the capped slice and the
    sorted pool of the merge as (slope, operand, width) triples over
    ``scale``; it equals ``crossing_point`` and ``cap_min_const`` of the
    lifted ``merge_scaled`` result."""
    value0 = 0
    total = 0
    pool: list[tuple[int, int, int]] = []
    for op, (f, m) in enumerate(zip(fs, mults)):
        value0 += f.v0 * m
        total += f.upper * m
        pool.extend([(slope, op, width * m) for slope, width in f.segs])
    if target > total:
        raise ValueError(
            f"target_domain {Fraction(target, scale)} exceeds total operand "
            f"domain {Fraction(total, scale)}")
    # highest slope first; the sort is stable, so equal slopes stay in
    # operand order
    pool.sort(key=_SLOPE, reverse=True)

    level = cap_num * scale  # the cap over scale * cap_den
    if value0 * cap_den >= level:
        big = lcm(scale, cap_den)
        upper = target * (big // scale)
        return Fraction(0), PwlConcave.reduced(
            big, cap_num * (big // cap_den),
            ((0, upper),) if upper else (), upper), pool
    segs: list[tuple[int, int]] = []
    v = value0  # the lift at t, both over scale
    t = 0
    room = target
    for slope, _, width in pool:
        if not room:
            break
        take = width if width < room else room
        slope += 1
        end = v + slope * take
        if end * cap_den >= level:
            # v * cap_den < level here, so the crossing is past t
            crossing = Fraction(t * cap_den * slope + level - v * cap_den,
                                scale * cap_den * slope)
            big = lcm(scale, crossing.denominator)
            m = big // scale
            cut = crossing.numerator * (big // crossing.denominator)
            if m != 1:
                segs = [(s, w * m) for s, w in segs]
            t *= m
            if segs and segs[-1][0] == slope:
                segs[-1] = (slope, segs[-1][1] + cut - t)
            else:
                segs.append((slope, cut - t))
            upper = target * m
            if upper > cut:
                segs.append((0, upper - cut))
            return crossing, PwlConcave.reduced(big, value0 * m, segs,
                                                upper), pool
        if segs and segs[-1][0] == slope:
            segs[-1] = (slope, segs[-1][1] + take)
        else:
            segs.append((slope, take))
        v = end
        t += take
        room -= take
    return None, PwlConcave.reduced(scale, value0, segs, target), pool


def backward_recursion(model: NominalModel) -> CostTable:
    """Run the exact backward recursion over all count states.

    Each state takes one :func:`_merge_step` of its children's slices on
    [0, 1], capped at its stopping risk g; the table keeps the crossing,
    the capped slice and the pool, and ``d`` is merged again from the
    children when it is read (see :class:`CostTable`).  In a
    mirror-symmetric model a state whose mirror comes first in
    lexicographic order reuses the mirror's slices and threshold."""
    sigma = _mirror(model)
    per_depth, twins = _paired_states(model, sigma)
    k = model.alphabet_size
    states: dict[tuple[int, ...], DesignState] = {}
    rho: dict[tuple[int, ...], PwlConcave] = {}
    z0_star: dict[tuple[int, ...], Fraction | None] = {}
    pools: dict[tuple[int, ...], tuple[int, list[tuple[int, int, int]]]] = {}

    for st in per_depth[model.horizon]:
        states[st.counts] = st
        m = twins.get(st.counts)
        # g on [0, 1]
        rho[st.counts] = PwlConcave.reduced(
            st.g_den, st.g_num, ((0, st.g_den),), st.g_den) \
            if m is None else rho[m]

    for n in range(model.horizon - 1, -1, -1):
        for st in per_depth[n]:
            counts = st.counts
            states[counts] = st
            m = twins.get(counts)
            if m is not None:
                rho[counts], z0_star[counts] = rho[m], z0_star[m]
                continue
            fs = [rho[counts[:x] + (counts[x] + 1,) + counts[x + 1:]]
                  for x in range(k)]
            scale = lcm(*(f.scale for f in fs))
            z0_star[counts], rho[counts], pool = _merge_step(
                fs, [scale // f.scale for f in fs], scale, scale,
                st.g_num, st.g_den)
            pools[counts] = scale, pool

    return CostTable(model, states, rho, z0_star, pools, twins, sigma)


def horizon_roots(model: NominalModel,
                  horizons: Iterable[int]) -> dict[int, PwlConcave]:
    """The root cost slice on [0, 1] at each horizon, from one pass, keyed
    by horizon in increasing order.

    Equals ``backward_recursion(model at horizon n).rho[root]`` for each n
    (``model.horizon`` itself is ignored), but solves classes instead of
    states.  A state with likelihoods z1 > 0 and z2 and r samples left has
    ``rho(z0) = z1 * W[l, r](z0 / z1)`` with ``l = z2 / z1``, where

        W[l, 0] = gamma(l) = min(lam1, lam2 * l),
        W[l, r](t) = min(gamma(l), t + sup over sum b_x = t of
                     sum_x p1x * W[l * p2x / p1x, r - 1](b_x / p1x)),

    the sum running over the symbols with p1x > 0 (a symbol with p1x = 0
    leads to z1 = 0, where rho is 0).  Each operand is its W with widths
    and value times p1x and the same integer slopes, and each class takes
    the recursion's :func:`_merge_step`.  W is flat from its cap crossing
    on, at most gamma <= lam1, so every W is kept on [0, max(lam1, 1)]:
    the operands' domains sum to that, and the root, ``W[1, n]`` on
    [0, 1], lies inside it.  States of different depths and horizons that
    share (l, r) are solved once.

    In a mirror-symmetric model (see :func:`_mirror`) a state and its
    mirror share one rho, which gives ``W[l](t) = l * W[1/l](t / l)``, so
    only the classes with l <= 1 are merged: a child class l = n/d > 1
    enters as W[d/n] with the multiplier p1x * n/d in place of p1x.  That
    operand reaches past the child's share of the domain only with W[d/n]
    flat from its crossing, which is at most gamma(d/n) <= lam1 * d/n, so
    the merge up to max(lam1, 1) is unchanged.  The fast model's sweep
    over the odd horizons 3..39 merges 400 classes (780 without the
    mirror) where the 19 recursions solve 5,529 internal states.
    """
    horizons = list(horizons)
    for n in horizons:
        # exactly an int, as NominalModel takes: 2.5, "3" and True are not
        if type(n) is not int or n < 1:
            raise ValueError(f"horizons must be integers >= 1, not {n!r}")
    horizons = set(horizons)
    if not horizons:
        return {}
    # symbols with p1x > 0, as (p1x numerator, p1x denominator, p2x / p1x)
    symbols = [(p1.numerator, p1.denominator, p2 / p1)
               for p1, p2 in zip(model.p1, model.p2) if p1 > 0]
    upper = max(model.lam1, Fraction(1))
    up, uq = upper.numerator, upper.denominator
    a1, b1 = model.lam1.numerator, model.lam1.denominator
    a2, b2 = model.lam2.numerator, model.lam2.denominator

    def gamma(ratio: tuple[int, int]) -> tuple[int, int]:
        # lam2 * l against lam1, cross-multiplied; not reduced
        num, den = a2 * ratio[0], b2 * ratio[1]
        return (a1, b1) if a1 * den <= num * b1 else (num, den)

    # the classes each count of samples left needs, with their children as
    # (class, multiplier numerator, multiplier denominator); a likelihood
    # ratio l is the pair (numerator, denominator) in lowest terms, which
    # hashes faster than a Fraction
    mirrored = _mirror(model) is not None
    top = max(horizons)
    needed: list[dict[tuple[int, int],
                      tuple[tuple[tuple[int, int], int, int], ...]]] = \
        [{} for _ in range(top + 1)]
    for r in range(top, 0, -1):
        if r in horizons:
            needed[r].setdefault((1, 1), ())
        for num, den in needed[r]:
            kids = []
            for a, b, q in symbols:
                n, d = num * q.numerator, den * q.denominator
                g = gcd(n, d)
                n, d = n // g, d // g
                if mirrored and n > d:  # W[n/d] as W[d/n] scaled by n/d
                    kid, a, b = (d, n), a * n, b * d
                    g = gcd(a, b)
                    a, b = a // g, b // g
                else:
                    kid = n, d
                kids.append((kid, a, b))
                needed[r - 1].setdefault(kid, ())
            needed[r][num, den] = tuple(kids)

    roots: dict[int, PwlConcave] = {}
    below = {ratio: pwl(Fraction(*gamma(ratio)), [(0, upper)])
             for ratio in needed[0]}
    for r in range(1, top + 1):
        level = {}
        for ratio, kids in needed[r].items():
            fs = [below[kid] for kid, _, _ in kids]
            scale = lcm(*(b * f.scale for (_, _, b), f in zip(kids, fs)))
            mults = [scale // (b * f.scale) * a
                     for (_, a, b), f in zip(kids, fs)]
            _, level[ratio], _ = _merge_step(
                fs, mults, scale, up * (scale // uq), *gamma(ratio))
        if r in horizons:
            roots[r] = restrict(level[1, 1], 1)
        below = level
    return roots


# ---------------------------------------------------------------------------
# truncation bound for the worst-case design
# ---------------------------------------------------------------------------

def kwt_truncation_bound(model: NominalModel) -> int:
    """Depth beyond which continuing can never pay, by exact scan.

    Precondition: the supports of the two hypotheses intersect in exactly
    one symbol x* (the classical worst case: only x* keeps both hypotheses
    alive, so the longest run any reasonable design can continue is along
    repeated x*).  Along that path the stopping risk after j steps is
    g_j = min(lam1 * p1(x*)^j, lam2 * p2(x*)^j); one more sample is worth
    its unit cost only while g_j - g_{j+1} >= 1.  The bound is the smallest
    k >= 0 with g_k - g_{k+1} < 1, clamped to at least 1 (the first sample
    is always taken by a nondegenerate design).

    For lam1 == lam2 == lam this equals the closed form
    max(1, floor(1 - (ln lam + ln(1 - p*)) / ln p*)) with
    p* = min(p1(x*), p2(x*)) — the smaller probability drives the decay of
    the stopping risk; see :func:`kwt_truncation_closed_form`.
    """
    inter = [
        x
        for x in range(model.alphabet_size)
        if model.p1[x] > 0 and model.p2[x] > 0
    ]
    if len(inter) != 1:
        raise ValueError(
            "truncation bound needs a single common support symbol; "
            f"supports intersect in {len(inter)} symbols"
        )
    x_star = inter[0]
    a, b = model.p1[x_star], model.p2[x_star]

    def g(j: int) -> Fraction:
        return min(model.lam1 * a**j, model.lam2 * b**j)

    k = 0
    while g(k) - g(k + 1) >= 1:
        k += 1
        if k > 10**6:  # the drop is eventually geometric; this cannot trip
            raise AssertionError("truncation scan failed to terminate")
    return max(1, k)


def kwt_truncation_closed_form(model: NominalModel) -> int:
    """Closed form of the truncation bound for lam1 == lam2.

    max(1, floor(1 - (ln lam + ln(1-p*)) / ln p*)) where p* is the smaller
    of the two probabilities of the common support symbol (the stopping risk
    along repeated x* is lam * p*^j, so p* sets the decay rate).  Provided
    for cross-checking the exact scan; float log arithmetic, so the scan is
    the authority.
    """
    if model.lam1 != model.lam2:
        raise ValueError("closed form only applies to equal error weights")
    inter = [
        x
        for x in range(model.alphabet_size)
        if model.p1[x] > 0 and model.p2[x] > 0
    ]
    if len(inter) != 1:
        raise ValueError("closed form needs a single common support symbol")
    x_star = inter[0]
    p_star = min(model.p1[x_star], model.p2[x_star])
    lam = model.lam1
    x = 1 - (log(lam) + log(1 - p_star)) / log(p_star)
    return max(1, floor(x))


# ---------------------------------------------------------------------------
# JSON serialization (exact, stable)
# ---------------------------------------------------------------------------

def _ratio_str(num: int, den: int) -> str:
    """``num/den`` in lowest terms: how every stored or exported rational
    is written."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _parse_ratio(text: str) -> tuple[int, int]:
    """(numerator, positive denominator) of a stored rational.  The writer
    stores ``num/den``; any other form ``Fraction`` reads is accepted too."""
    if not isinstance(text, str):
        raise TypeError(f"not a rational string: {text!r}")
    num, slash, den = text.partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        v = Fraction(text)
        return v.numerator, v.denominator
    if d <= 0:
        raise ValueError(f"not a rational with a positive denominator: {text!r}")
    return n, d


def model_to_json(model: NominalModel) -> dict:
    return {
        "p1": [_ratio_str(*v.as_integer_ratio()) for v in model.p1],
        "p2": [_ratio_str(*v.as_integer_ratio()) for v in model.p2],
        "lambda1": _ratio_str(*model.lam1.as_integer_ratio()),
        "lambda2": _ratio_str(*model.lam2.as_integer_ratio()),
        "horizon": model.horizon,
    }


def model_from_json(d: dict) -> NominalModel:
    def frac(text: str) -> Fraction:
        return Fraction(*_parse_ratio(text))

    return NominalModel(
        tuple(frac(v) for v in d["p1"]),
        tuple(frac(v) for v in d["p2"]),
        frac(d["lambda1"]),
        frac(d["lambda2"]),
        d["horizon"],
    )


_RECORD_FIELDS = frozenset(("counts", "depth", "g", "rho", "z1", "z2"))
_HEAD, _STATES = '{\n "model": ', ',\n "states": [\n'  # around the header


def _loads(text: str):
    """``json.loads``, with a nesting too deep to parse as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("the JSON is nested too deeply") from exc


def table_header(text: str) -> tuple[NominalModel, str | dict]:
    """The model a cost table's text states, and what
    :func:`cost_table_from_json` should read: the text itself, with only
    its header parsed, when it is in the writer's layout up to its first
    record and holds one record per state, which bounds a solve by the
    text's length; else the text parsed."""
    if text.startswith(_HEAD):
        try:
            head, end = json.JSONDecoder().raw_decode(text, len(_HEAD))
            model = model_from_json(head)
            k = model.alphabet_size
            if (text.startswith(_STATES, end) and text.count(
                    '"counts": [', end) == comb(model.horizon + k, k)):
                return model, text
        except (KeyError, TypeError, ValueError, RecursionError):
            pass  # the whole text is parsed below, which names what is wrong
    data = _loads(text)
    return model_from_json(data["model"]), data


def _check_record(rec: dict, st: DesignState, f: PwlConcave) -> None:
    """Raise :class:`ExtractionError` naming the state and the field unless
    the record stores exactly the state ``st`` and its cost slice ``f``.
    Rationals compare by value, as ``n * den == d * num``; where the
    writer stores an integer, the value must be one, not a float or a bool
    that equals it."""
    want = [("z1", rec["z1"], st.z1_num, st.den),
            ("z2", rec["z2"], st.z2_num, st.den),
            ("g", rec["g"], st.g_num, st.g_den)]
    rho = rec["rho"]
    segs = rho["segments"]
    want += [("rho value_at_zero", rho["value_at_zero"], f.v0, f.scale),
             ("rho domain_upper", rho["domain_upper"], f.upper, f.scale)]
    want += [(f"rho segment {i} width", seg["width"], w, f.scale)
             for i, (seg, (_, w)) in enumerate(zip(segs, f.segs))]
    stored_slopes = [seg["slope"] for seg in segs]
    # the writer stores integers there; JSON's 2.0 and true equal 2 and 1
    ints = [("depth", rec["depth"])] + [
        (f"rho segment {i} slope", s) for i, s in enumerate(stored_slopes)]
    for field, v in ints:
        if type(v) is not int:
            raise ExtractionError(
                f"state {st.counts}: stored {field} = {v!r} is not an integer")
    for field, text, num, den in want:
        n, d = _parse_ratio(text)
        if n * den != d * num:
            raise ExtractionError(
                f"state {st.counts}: stored {field} = {text}, but the model "
                f"header gives {_ratio_str(num, den)}")
    slopes = [s for s, _ in f.segs]
    if (rec["depth"], stored_slopes) != (st.depth, slopes):
        raise ExtractionError(
            f"state {st.counts}: stored depth = {rec['depth']} and rho slopes "
            f"= {stored_slopes}, but the model header gives {st.depth} and "
            f"{slopes}")


def cost_table_from_json(d: str | dict) -> CostTable:
    """Read a table written by :func:`cost_table_to_json_str`, as its text
    (see :func:`table_header`) or parsed.

    The reader solves the model in the table's header once with
    :func:`backward_recursion` and checks the table against it.  A text in
    the writer's layout is compared with the writer's text of the solve,
    piece by piece in place: equal bytes store every number the solve
    gives, with no parse of the records.  Any other text is parsed, and a
    parsed table is checked by value: every stored number must equal the
    recomputed one, else :class:`ExtractionError` names the state and the
    field (see :func:`_check_record`), the root first, then the states by
    (depth, counts).  Before any solve the records must number one per
    state of the header's horizon (a table given parsed must also reach
    exactly it), so an edited horizon costs no solve of its size; a parsed
    record may hold no field beyond the six the writer stores.
    """
    table = None
    if isinstance(d, str):
        model, d = table_header(d)
        if isinstance(d, str):  # in the writer's layout
            table, pos = backward_recursion(model), 0
            for piece in _pieces(table):
                if not d.startswith(piece, pos):
                    break
                pos += len(piece)
            else:
                if d[pos:] in ("", "\n"):  # `design` ends the file with one
                    return table
            d = _loads(d)
    model = model_from_json(d["model"])
    k = model.alphabet_size
    recs = d["states"]
    depth = max((sum(rec["counts"]) for rec in recs), default=-1)
    if depth != model.horizon:
        raise ValueError(f"the table stores states to depth {depth}, but its "
                         f"header gives horizon {model.horizon}")
    if len(recs) != comb(model.horizon + k, k):
        raise ValueError(f"the table stores {len(recs)} states, but a model "
                         f"of horizon {model.horizon} has "
                         f"{comb(model.horizon + k, k)}")
    stored: dict[tuple[int, ...], dict] = {}
    for rec in recs:
        counts = tuple(rec["counts"])
        if any(type(c) is not int for c in counts):
            raise ValueError(f"counts {rec['counts']!r} are not all integers")
        if len(counts) != k or any(c < 0 for c in counts):
            raise ValueError(f"counts {counts} are not a state of the model")
        if counts in stored:
            raise ValueError(f"counts {counts} are stored twice")
        extra = rec.keys() - _RECORD_FIELDS
        if extra:
            raise ValueError(f"state {counts}: unknown field "
                             f"{', '.join(map(repr, sorted(extra)))}; write "
                             f"the table again with `npkw design`")
        stored[counts] = rec
    if table is None or table.model != model:  # a second "model" key
        table = backward_recursion(model)
    for counts in sorted(table.states, key=lambda c: (sum(c), c)):
        if counts not in stored:
            raise ValueError(f"counts {counts} are not stored")
        _check_record(stored[counts], table.states[counts], table.rho[counts])
    return table


def _slice_text(f: PwlConcave) -> str:
    """A slice as the JSON object of a field of a state record."""
    scale = f.scale
    segs = ",\n".join(
        f'     {{\n      "slope": {s},\n      "width": "{_ratio_str(w, scale)}"'
        '\n     }' for s, w in f.segs
    )
    upper = "1/1" if f.upper == scale else _ratio_str(f.upper, scale)
    return (f'{{\n    "domain_upper": "{upper}",\n'
            f'    "segments": [\n{segs}\n    ],\n'
            f'    "value_at_zero": "{_ratio_str(f.v0, scale)}"\n   }}')


def _pieces(table: CostTable) -> Iterator[str]:
    """The text of :func:`cost_table_to_json_str` in order: the header,
    then per state its record up to ``rho``, the slice and the rest, then
    the end.  A state whose mirror comes first takes the mirror's slice
    text and its z1 and z2 texts swapped (see :class:`CostTable`)."""
    model = table.model
    head = model_to_json(model)
    p1, p2 = (",\n".join(f'   "{v}"' for v in head[key]) for key in ("p1", "p2"))
    yield (f'{_HEAD}{{\n  "horizon": {model.horizon},\n'
           f'  "lambda1": "{head["lambda1"]}",\n'
           f'  "lambda2": "{head["lambda2"]}",\n'
           f'  "p1": [\n{p1}\n  ],\n  "p2": [\n{p2}\n  ]\n }}{_STATES}')
    texts: dict[tuple[int, ...], tuple[str, str, str, str]] = {}
    sep = ""
    for counts in sorted(table.states, key=lambda c: (sum(c), c)):
        st = table.states[counts]
        twin = table.twins.get(counts)
        if twin is None:
            g, z1, z2, rho = texts[counts] = (
                _ratio_str(st.g_num, st.g_den), _ratio_str(st.z1_num, st.den),
                _ratio_str(st.z2_num, st.den), _slice_text(table.rho[counts]))
        else:
            g, z2, z1, rho = texts[twin]
        counts_text = ",\n    ".join(map(str, counts))
        yield (f'{sep}  {{\n   "counts": [\n    {counts_text}\n   ],\n'
               f'   "depth": {st.depth},\n   "g": "{g}",\n   "rho": ')
        yield rho
        yield f',\n   "z1": "{z1}",\n   "z2": "{z2}"\n  }}'
        sep = ",\n"
    yield "\n ]\n}"


def cost_table_to_json_str(table: CostTable) -> str:
    """Exact JSON text of the table: model echo plus one record per state.

    States are listed by (depth, counts), every rational is a "num/den"
    string in lowest terms, and the text is written field by field exactly
    as ``json.dumps(..., sort_keys=True, indent=1)`` prints those records,
    so the bytes are stable across runs.  A record holds the state (its
    ``counts``, ``depth``, ``z1``, ``z2`` and ``g``) and its cost slice
    ``rho``; the continuation slices, merge pools and thresholds follow from
    the model and are not stored.  The text is the join of the pieces
    :func:`cost_table_from_json` compares a text with; mirrored states
    share their slice's text.
    """
    return "".join(_pieces(table))
