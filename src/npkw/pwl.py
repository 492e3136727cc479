"""Exact algebra of concave nondecreasing piecewise-linear functions.

The minimax design recursion works with concave, nondecreasing, piecewise
linear functions on a bounded interval [0, U] whose segment slopes are
nonnegative *integers*.  This module provides that class together with the
two operations the recursion is made of:

* pointwise minimum with a nonnegative constant (``cap_min_const``) and
* the sup-convolution of several functions (``supconv``),

      (f_1 # ... # f_K)(t) = max { sum_x f_x(a_x) : a_x >= 0, sum_x a_x = t }.

The third step, the lift ``t -> t + f(t)``, raises every slope by one.  The
recursion's merge step in :mod:`npkw.bellman` does the merge, the lift and
the cap in one walk over the merge's integers; ``merge_scaled``,
``crossing_point`` and ``cap_min_const`` are the reference it equals.

All arithmetic is exact; no floats ever enter.  A function is stored as
plain integers over one positive scale: the value at zero is
``v0 / scale``, each segment width ``w / scale`` and the domain end
``upper / scale``.  The form is canonical: segments ordered by strictly
decreasing slope (concavity), zero-width segments dropped, adjacent equal
slopes merged, widths summing exactly to the domain length, and
``gcd(scale, v0, upper, *widths) == 1``.  Equal functions therefore have
equal fields, so comparing and hashing the four fields compares and hashes
the functions.  The public views (``value_at_zero``, ``segments``,
``domain_upper``) and every public function speak ``fractions.Fraction``.

Sup-convolution of concave functions is the classic "merge segments by
decreasing slope" construction.  Slope ties are broken by operand index
(lowest operand first); the sorted pool of operand segments is the merge
record from which ``split_at`` reads back the maximizing allocation at any
point of the domain exactly, as integers over one denominator.  The
merge itself, ``merge_scaled``, also takes each operand as
``t -> c * f(t / c)`` (the same slopes, value and widths times c) through
its integer multipliers, and ``restrict`` cuts a function to a shorter
domain.  A point
``t = p/q`` is compared with a cumulative width ``W/scale`` as
``p*scale`` against ``W*q``, so no rational is built until a result is
returned.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence, Union

#: Exact scalars the public constructors accept (int, str like "3/4" or
#: "0.8", Fraction); results are Fractions.
RationalLike = Union[int, str, Fraction]


def rat(x: RationalLike) -> Fraction:
    """Exact conversion to ``Fraction``.

    Strings go through ``Fraction``'s exact parser, so decimal strings stay
    exact: ``rat("0.8") == Fraction(4, 5)``.  Floats are rejected — passing
    a binary float would silently smuggle rounding error into an exact
    computation.

    >>> rat("0.8")
    Fraction(4, 5)
    >>> rat(3)
    Fraction(3, 1)
    """
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass a string, int or Fraction")
    return Fraction(x)


def decimal_str(x: Fraction, places: int | None = None) -> str:
    """``x`` as a decimal, rounded once, half-even, from its exact value.

    With ``places``: fixed point with that many digits after the point.
    Without: 12 significant digits, written as ``str(Decimal)`` writes
    them, so an exact quotient drops trailing zeros and a small or large
    magnitude takes an exponent.

    >>> decimal_str(Fraction(2, 3), 6), decimal_str(Fraction(1, 4), 6)
    ('0.666667', '0.250000')
    >>> decimal_str(Fraction(2, 3)), decimal_str(Fraction(1, 4))
    ('0.666666666667', '0.25')
    """
    if places is not None:
        return _fixed_str(x.numerator, x.denominator, places)
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 12, ROUND_HALF_EVEN
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _fixed_str(num: int, den: int, places: int) -> str:
    """``decimal_str(Fraction(num, den), places)`` in integers, for
    ``den > 0``: a value that rounds to zero keeps its sign."""
    unit = 10**places
    q, r = divmod(abs(num) * unit, den)
    if 2 * r > den or (2 * r == den and q & 1):  # half to even
        q += 1
    sign = "-" if num < 0 else ""
    if not places:
        return f"{sign}{q}"
    return f"{sign}{q // unit}.{q % unit:0{places}d}"


def _ratio(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an exact scalar; the denominator is
    positive and the pair is in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if not isinstance(x, Fraction):
        x = rat(x)
    return x.numerator, x.denominator


class SuperDiff(NamedTuple):
    """Closed interval [lo, hi] of supergradients at a point.

    For a concave nondecreasing PWL function with integer slopes the
    superdifferential at any point is an integer interval:

    * interior of a segment: lo == hi == the segment slope;
    * interior kink: [slope to the right, slope to the left];
    * t == 0: the right derivative alone (lo == hi == first slope);
    * t == domain_upper: lo == 0 (slopes are nonnegative, so the
      half-line of supergradients below the left slope is clamped at 0)
      and hi == last slope.
    """

    lo: int
    hi: int

    def __contains__(self, s: int) -> bool:
        return self.lo <= s <= self.hi


class PwlConcave:
    """Concave nondecreasing PWL function on [0, domain_upper], canonical form.

    Attributes:
        scale: the positive common denominator of every quantity below.
        v0: f(0) * scale >= 0.
        segs: tuple of (slope, width * scale) pairs; slopes are nonnegative
            ints in strictly decreasing order, scaled widths are positive
            ints summing to ``upper``.
        upper: domain_upper * scale (>= 0; zero-width domains are legal and
            represent a single point).

    The four are reduced: ``gcd(scale, v0, upper, *widths) == 1``, so two
    instances are ``==`` (and hash equal) exactly when they are the same
    function.  An instance equals no other type, a tuple of its fields
    included.  Instances are immutable and validated on construction; use
    :func:`pwl` to build one from possibly non-canonical rational segment
    data, or :meth:`reduced` from integers over any positive scale.
    """

    __slots__ = ("scale", "v0", "segs", "upper")

    scale: int
    v0: int
    segs: tuple[tuple[int, int], ...]
    upper: int

    def __init__(self, scale: int, v0: int, segs: tuple[tuple[int, int], ...],
                 upper: int) -> None:
        if not isinstance(scale, int) or scale <= 0:
            raise ValueError("scale must be a positive integer")
        if not isinstance(v0, int) or v0 < 0:
            raise ValueError("value_at_zero must be a nonnegative rational")
        if not isinstance(upper, int) or upper < 0:
            raise ValueError("domain_upper must be a nonnegative rational")
        common = gcd(scale, v0, upper)
        total = 0
        prev_slope = None
        for slope, width in segs:
            if not isinstance(slope, int) or slope < 0:
                raise ValueError("slopes must be nonnegative integers")
            if not isinstance(width, int) or width <= 0:
                raise ValueError("segment widths must be positive")
            if prev_slope is not None and slope >= prev_slope:
                raise ValueError("slopes must be strictly decreasing")
            prev_slope = slope
            total += width
            if common != 1:
                common = gcd(common, width)
        if total != upper:
            raise ValueError(
                f"segment widths sum to {Fraction(total, scale)}, "
                f"expected domain_upper={Fraction(upper, scale)}"
            )
        if common != 1:
            raise ValueError("scale and numerators share a common factor")
        init = object.__setattr__
        init(self, "scale", scale)
        init(self, "v0", v0)
        init(self, "segs", segs)
        init(self, "upper", upper)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.scale == other.scale and self.v0 == other.v0
                and self.upper == other.upper and self.segs == other.segs)

    def __hash__(self) -> int:
        return hash((self.scale, self.v0, self.segs, self.upper))

    def __repr__(self) -> str:
        return (f"PwlConcave(scale={self.scale!r}, v0={self.v0!r}, "
                f"segs={self.segs!r}, upper={self.upper!r})")

    def __reduce__(self) -> tuple:
        return PwlConcave, (self.scale, self.v0, self.segs, self.upper)

    @classmethod
    def reduced(cls, scale: int, v0: int, segs: Sequence[tuple[int, int]],
                upper: int) -> "PwlConcave":
        """The function with these integers over ``scale``, after dividing
        out their common factor (the canonical form)."""
        g = gcd(scale, v0, upper, *[w for _, w in segs])
        if g != 1:
            scale //= g
            v0 //= g
            upper //= g
            segs = [(s, w // g) for s, w in segs]
        return cls(scale, v0, tuple(segs), upper)

    # Fraction views ---------------------------------------------------------

    @property
    def value_at_zero(self) -> Fraction:
        return Fraction(self.v0, self.scale)

    @property
    def segments(self) -> tuple[tuple[int, Fraction], ...]:
        """(slope, width) pairs with the widths as Fractions."""
        scale = self.scale
        return tuple((slope, Fraction(w, scale)) for slope, w in self.segs)

    @property
    def domain_upper(self) -> Fraction:
        return Fraction(self.upper, self.scale)

    @property
    def value_at_upper(self) -> Fraction:
        return Fraction(self.v0 + sum(s * w for s, w in self.segs), self.scale)

    def __call__(self, t: RationalLike) -> Fraction:
        return pwl_eval(self, t)


def pwl(
    value_at_zero: RationalLike,
    segments: Iterable[tuple[int, RationalLike]] = (),
) -> PwlConcave:
    """Build a :class:`PwlConcave` from segment data, canonicalizing it.

    Zero-width segments are dropped and runs of equal slopes are merged;
    the slope sequence must be nonincreasing once that is done (anything
    else is not concave and raises ``ValueError``).  The domain length is
    the sum of the widths.
    """
    f0 = rat(value_at_zero)
    given: list[tuple[int, Fraction]] = []
    for slope, width in segments:
        w = rat(width)
        if w < 0:
            raise ValueError("segment widths must be nonnegative")
        if w == 0:
            continue
        if not isinstance(slope, int):
            raise ValueError("slopes must be integers")
        given.append((slope, w))
    scale = lcm(f0.denominator, *(w.denominator for _, w in given))
    canon: list[tuple[int, int]] = []
    for slope, w in given:
        width = w.numerator * (scale // w.denominator)
        if canon and canon[-1][0] == slope:
            canon[-1] = (slope, canon[-1][1] + width)
        else:
            canon.append((slope, width))
    return PwlConcave.reduced(scale, f0.numerator * (scale // f0.denominator),
                              canon, sum(w for _, w in canon))


def _in_domain(f: PwlConcave, p: int, q: int) -> int:
    """t = p/q over ``f.scale * q`` (that is, ``p * f.scale``), after
    checking that 0 <= t <= domain_upper."""
    ps = p * f.scale
    if p < 0 or ps > f.upper * q:
        raise ValueError(f"{Fraction(p, q)} outside domain [0, {f.domain_upper}]")
    return ps


def pwl_eval(f: PwlConcave, t: RationalLike) -> Fraction:
    """Evaluate f at t (0 <= t <= domain_upper), exactly."""
    p, q = _ratio(t)
    rest = _in_domain(f, p, q)  # t still to walk, over scale * q
    v = f.v0                     # value so far, over scale
    for slope, width in f.segs:
        wq = width * q
        if rest <= wq:
            return Fraction(v * q + slope * rest, f.scale * q)
        v += slope * width
        rest -= wq
    return Fraction(v, f.scale)  # t == domain_upper after all segments


def _sides(f: PwlConcave, p: int, q: int) -> tuple:
    """One scan of f at t = p/q (q > 0): :func:`superdiff`'s ``lo``, ``hi``,
    the extended right slope, and the segment t is inside (or None)."""
    ps = _in_domain(f, p, q)
    segs = f.segs
    if not segs:  # single-point domain
        return 0, 0, 0, None
    if p == 0:
        first = segs[0][0]
        return first, first, first, None
    acc = 0
    for i, (slope, width) in enumerate(segs):
        acc += width
        aq = acc * q
        if ps < aq:
            # strictly inside segment i (segment starts are handled as the
            # previous iteration's t == acc, and t == 0 above)
            return slope, slope, slope, (acc - width, acc)
        if ps == aq:
            if i + 1 < len(segs):
                right = segs[i + 1][0]
                return right, slope, right, None
            return 0, slope, slope, None  # t == domain_upper
    raise AssertionError("unreachable: domain scan fell through")


def superdiff(f: PwlConcave, t: RationalLike) -> SuperDiff:
    """Superdifferential of f at t, with the edge conventions of the class.

    See :class:`SuperDiff` for the conventions.  Examples::

        f = pwl(0, [(3, "1/4"), (1, "3/4")])
        superdiff(f, "1/4")  ->  SuperDiff(lo=1, hi=3)   (interior kink)
        superdiff(f, 0)      ->  SuperDiff(lo=3, hi=3)
        superdiff(f, 1)      ->  SuperDiff(lo=0, hi=1)
    """
    lo, hi, _, _ = _sides(f, *_ratio(t))
    return SuperDiff(lo, hi)


def slope_right(f: PwlConcave, t: RationalLike) -> int:
    """Slope immediately to the right of t, *linearly extended* at the edge.

    For t < domain_upper this is the ordinary right derivative.  At
    t == domain_upper it returns the last segment's slope (0 for an empty
    segment list) — i.e. the derivative of the linear extension — rather
    than the clamped 0 that :func:`superdiff` reports.  Policy extraction
    needs this convention: when a child function is consumed up to its full
    domain, the continuation values of the subtree keep growing at the last
    segment's rate.
    """
    return _sides(f, *_ratio(t))[2]


def crossing_point(f: PwlConcave, c: RationalLike) -> Fraction | None:
    """Smallest t with f(t) == c, or None if f stays strictly below c.

    f is nondecreasing and continuous, so the crossing is unique whenever the
    level c is actually attained with positive slope; if f(0) >= c the
    crossing is 0.  Returning ``domain_upper`` exactly (cap touches only at
    the right end) is distinct from returning None (cap never reached).
    """
    lp, lq = _ratio(c)
    level = lp * f.scale  # c over scale * lq; values v over scale are v * lq
    v = f.v0
    if v * lq >= level:
        return Fraction(0)
    t0 = 0
    for slope, width in f.segs:
        end = v + slope * width
        if end * lq >= level:
            # slope > 0 here: end > v and level > v
            return Fraction(t0 * lq * slope + level - v * lq,
                            f.scale * lq * slope)
        v = end
        t0 += width
    return None


_UNKNOWN = object()


def cap_min_const(f: PwlConcave, c: RationalLike, *,
                  crossing: Fraction | None | object = _UNKNOWN) -> PwlConcave:
    """Pointwise minimum min(f, c) for a nonnegative constant c.

    The result is again concave nondecreasing with integer slopes: f is kept
    up to the crossing point and continued flat afterwards.  A caller that
    already holds ``crossing_point(f, c)`` passes it as ``crossing`` to skip
    a second scan of f.  The result is put over the lcm of f's scale and
    the crossing's denominator and reduced once.
    """
    lp, lq = _ratio(c)
    if lp < 0:
        raise ValueError("cap level must be nonnegative")
    t_star = crossing_point(f, c) if crossing is _UNKNOWN else crossing
    if t_star is None:
        return f
    if t_star == 0:
        # constant at level c (f(0) >= c)
        scale = lcm(f.scale, lq)
        upper = f.upper * (scale // f.scale)
        segs = ((0, upper),) if upper else ()
        return PwlConcave.reduced(scale, lp * (scale // lq), segs, upper)
    scale, cut, new = _prefix(f, t_star)
    m = scale // f.scale
    upper = f.upper * m
    tail = upper - cut
    if tail > 0:
        if new and new[-1][0] == 0:
            new[-1] = (0, new[-1][1] + tail)
        else:
            new.append((0, tail))
    return PwlConcave.reduced(scale, f.v0 * m, new, upper)


def _prefix(f: PwlConcave,
            u: RationalLike) -> tuple[int, int, list[tuple[int, int]]]:
    """f's segments on [0, u] for 0 <= u <= domain_upper, over the lcm of
    f's scale and u's denominator: (that scale, u over it, the segments)."""
    up, uq = _ratio(u)
    scale = lcm(f.scale, uq)
    m = scale // f.scale
    cut = up * (scale // uq)
    room = cut
    new: list[tuple[int, int]] = []
    for slope, width in f.segs:
        if room == 0:
            break
        width *= m
        take = width if width < room else room
        new.append((slope, take))
        room -= take
    return scale, cut, new


def restrict(f: PwlConcave, u: RationalLike) -> PwlConcave:
    """f restricted to [0, u], for 0 <= u <= domain_upper."""
    _in_domain(f, *_ratio(u))
    scale, cut, segs = _prefix(f, u)
    return PwlConcave.reduced(scale, f.v0 * (scale // f.scale), segs, cut)


def supconv(
    fs: Sequence[PwlConcave], target_domain: RationalLike
) -> tuple[PwlConcave, tuple[int, list[tuple[int, int, int]]]]:
    """Sup-convolution of ``fs`` restricted to [0, target_domain].

    Merges all operand segments by decreasing slope (ties broken by operand
    index, lowest first) and truncates at the target length, which must not
    exceed the sum of the operand domains (the allocation constraint is
    infeasible beyond it).  Returns the result together with the merge
    record ``(scale, pool)`` that :func:`split_at` reads: the sorted pool
    of every operand segment, as (slope, operand, width) triples over
    ``scale``, the lcm of the operands' scales and of the target's
    denominator.

    The value at 0 is the sum of the operands' values at 0, and the result's
    superdifferential at any t is the intersection of the operands'
    superdifferentials at the canonical allocation — the standard
    sup-convolution calculus for concave functions.
    """
    if not fs:
        raise ValueError("supconv needs at least one operand")
    tp, tq = _ratio(target_domain)
    if tp < 0:
        raise ValueError("target_domain must be nonnegative")
    scale = lcm(tq, *(f.scale for f in fs))
    target = tp * (scale // tq)
    value0, segs, pool = merge_scaled(
        fs, [scale // f.scale for f in fs], scale, target)
    return PwlConcave.reduced(scale, value0, segs, target), (scale, pool)


def merge_scaled(
    fs: Sequence[PwlConcave], mults: Sequence[int], scale: int, target: int
) -> tuple[int, list[tuple[int, int]], list[tuple[int, int, int]]]:
    """The sup-convolution merge in integers over ``scale``.

    Operand ``op`` enters with its value at zero and its widths multiplied
    by ``mults[op]``: over ``scale`` that is ``f`` itself when the
    multiplier is ``scale // f.scale``, and the function
    ``t -> c * f(t / c)`` (same slopes, value and widths times c) when it
    is c times that.  Returns the value at zero and the merged
    (slope, width) segments up to ``target``, both over ``scale`` and not
    reduced, and the sorted pool of every operand segment as
    (slope, operand, width) triples.
    """
    value0 = 0
    cap = 0
    pool: list[tuple[int, int, int]] = []
    for op, (f, m) in enumerate(zip(fs, mults)):
        value0 += f.v0 * m
        cap += f.upper * m
        pool.extend((slope, op, width * m) for slope, width in f.segs)
    if target > cap:
        raise ValueError(
            f"target_domain {Fraction(target, scale)} exceeds total operand "
            f"domain {Fraction(cap, scale)}"
        )
    # Highest slope first; operand index breaks ties deterministically.
    pool.sort(key=lambda e: (-e[0], e[1]))

    segs: list[tuple[int, int]] = []
    room = target
    for slope, _op, width in pool:
        if room == 0:
            break
        take = width if width < room else room
        if segs and segs[-1][0] == slope:
            segs[-1] = (slope, segs[-1][1] + take)
        else:
            segs.append((slope, take))
        room -= take
    return value0, segs, pool


def split_at(record: tuple[int, Sequence[tuple[int, int, int]]], k: int,
             p: int, q: int) -> tuple[list[int], int]:
    """Canonical maximizing allocation (a_1, ..., a_k) with sum == t, for
    t = p/q (q > 0) between 0 and the operands' total domain.

    ``record`` is a merge's ``(scale, pool)`` as :func:`supconv` returns
    it and the recursion keeps it, over k operands.  The walk goes slope
    class by slope class.  Classes strictly above the landing slope are
    consumed whole; the class t lands in is shared among its member
    segments in proportion to their widths.  Any split of the landing
    class maximizes — proportional sharing is the canonical choice: it is
    symmetric, keeps every competing branch positively weighted, and is
    continuous in t.  Returns the allocation as integer numerators over
    one positive denominator, not reduced.
    """
    scale, pool = record
    if p < 0:
        raise ValueError(f"{Fraction(p, q)} outside the merged domain")
    x = p * scale  # t still to allocate, over scale * q
    alloc = [0] * k  # whole classes taken, over scale
    i = 0
    n = len(pool)
    while x > 0:
        if i == n:
            total = sum(w for _, _, w in pool)
            raise ValueError(f"{Fraction(p, q)} outside the merged domain "
                             f"[0, {Fraction(total, scale)}]")
        slope = pool[i][0]
        j = i
        class_width = 0
        while j < n and pool[j][0] == slope:
            class_width += pool[j][2]
            j += 1
        cq = class_width * q
        if x < cq:
            # operand op gets alloc[op] / scale + width * x / (cq * scale)
            alloc = [a * cq for a in alloc]
            for _, op, width in pool[i:j]:
                alloc[op] += width * x
            return alloc, cq * scale
        for _, op, width in pool[i:j]:
            alloc[op] += width
        x -= cq
        i = j
    return alloc, scale
