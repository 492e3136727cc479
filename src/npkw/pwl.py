"""Exact algebra of concave nondecreasing piecewise-linear functions.

The minimax design recursion works with concave, nondecreasing, piecewise
linear functions on a bounded interval [0, U] whose segment slopes are
nonnegative *integers*.  This module provides that class together with the
three operations the recursion needs:

* pointwise minimum with a nonnegative constant (``cap_min_const``),
* the lift ``t -> t + f(t)`` (``lift_identity``), and
* the sup-convolution of several functions (``supconv``),

      (f_1 # ... # f_K)(t) = max { sum_x f_x(a_x) : a_x >= 0, sum_x a_x = t }.

All arithmetic is exact over the rationals (``fractions.Fraction``); no
floats ever enter.  A function is stored in canonical form: segments ordered
by strictly decreasing slope (concavity), zero-width segments dropped,
adjacent equal slopes merged, widths summing exactly to the domain length.

Sup-convolution of concave functions is the classic "merge segments by
decreasing slope" construction.  Slope ties are broken by operand index
(lowest operand first); recording the consumed segments yields a
``SplitMap`` from which the maximizing allocation at any point of the
domain can be read back exactly (``split_at``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

#: Exact scalar type used throughout the package.  Anything accepted by the
#: ``Fraction`` constructor (int, str like "3/4" or "0.8", another Fraction)
#: can be fed to the public constructors; internally everything is Fraction.
Rational = Fraction

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


@dataclass(frozen=True)
class SuperDiff:
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


@dataclass(frozen=True)
class PwlConcave:
    """Concave nondecreasing PWL function on [0, domain_upper], canonical form.

    Attributes:
        value_at_zero: f(0) >= 0, exact.
        segments: tuple of (slope, width) pairs; slopes are nonnegative ints
            in strictly decreasing order, widths are positive rationals
            summing to domain_upper.
        domain_upper: right end of the domain (>= 0; zero-width domains are
            legal and represent a single point).

    Instances are immutable and validated on construction; use :func:`pwl`
    to build one from possibly non-canonical segment data.
    """

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
            raise ValueError(
                f"segment widths sum to {total}, expected domain_upper={self.domain_upper}"
            )

    # Convenience accessors -------------------------------------------------

    @property
    def value_at_upper(self) -> Fraction:
        v = self.value_at_zero
        for slope, width in self.segments:
            v += slope * width
        return v

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
    canon: list[tuple[int, Fraction]] = []
    for slope, width in segments:
        w = rat(width)
        if w < 0:
            raise ValueError("segment widths must be nonnegative")
        if w == 0:
            continue
        if not isinstance(slope, int):
            raise ValueError("slopes must be integers")
        if canon and canon[-1][0] == slope:
            canon[-1] = (slope, canon[-1][1] + w)
        else:
            canon.append((slope, w))
    upper = sum((w for _, w in canon), Fraction(0))
    return PwlConcave(f0, tuple(canon), upper)


def pwl_eval(f: PwlConcave, t: RationalLike) -> Fraction:
    """Evaluate f at t (0 <= t <= domain_upper), exactly."""
    x = rat(t)
    if x < 0 or x > f.domain_upper:
        raise ValueError(f"{x} outside domain [0, {f.domain_upper}]")
    v = f.value_at_zero
    for slope, width in f.segments:
        if x <= width:
            return v + slope * x
        v += slope * width
        x -= width
    return v  # x == 0 exactly after consuming all segments


def superdiff(f: PwlConcave, t: RationalLike) -> SuperDiff:
    """Superdifferential of f at t, with the edge conventions of the class.

    See :class:`SuperDiff` for the conventions.  Examples::

        f = pwl(0, [(3, "1/4"), (1, "3/4")])
        superdiff(f, "1/4")  ->  SuperDiff(lo=1, hi=3)   (interior kink)
        superdiff(f, 0)      ->  SuperDiff(lo=3, hi=3)
        superdiff(f, 1)      ->  SuperDiff(lo=0, hi=1)
    """
    x = rat(t)
    if x < 0 or x > f.domain_upper:
        raise ValueError(f"{x} outside domain [0, {f.domain_upper}]")
    if not f.segments:  # single-point domain
        return SuperDiff(0, 0)
    first = f.segments[0][0]
    if x == 0:
        return SuperDiff(first, first)
    acc = Fraction(0)
    for i, (slope, width) in enumerate(f.segments):
        acc += width
        if x < acc:
            # strictly inside segment i (segment starts are handled as the
            # previous iteration's x == acc, and x == 0 above)
            return SuperDiff(slope, slope)
        if x == acc:
            if i + 1 < len(f.segments):
                return SuperDiff(f.segments[i + 1][0], slope)
            return SuperDiff(0, slope)  # t == domain_upper
    raise AssertionError("unreachable: domain scan fell through")


def slope_left(f: PwlConcave, t: RationalLike) -> int:
    """Slope immediately to the left of t; at t == 0, the first slope.

    Equals ``superdiff(f, t).hi`` everywhere — provided separately for
    readability at call sites that care about one side only.
    """
    return superdiff(f, t).hi


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
    x = rat(t)
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


def crossing_point(f: PwlConcave, c: RationalLike) -> Fraction | None:
    """Smallest t with f(t) == c, or None if f stays strictly below c.

    f is nondecreasing and continuous, so the crossing is unique whenever the
    level c is actually attained with positive slope; if f(0) >= c the
    crossing is 0.  Returning ``domain_upper`` exactly (cap touches only at
    the right end) is distinct from returning None (cap never reached).
    """
    level = rat(c)
    if f.value_at_zero >= level:
        return Fraction(0)
    t0 = Fraction(0)
    v = f.value_at_zero
    for slope, width in f.segments:
        end = v + slope * width
        if end >= level:
            # slope > 0 here: end > v >= ... and level > v
            return t0 + Fraction(level - v, slope)
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
    a second scan of f.
    """
    level = rat(c)
    if level < 0:
        raise ValueError("cap level must be nonnegative")
    t_star = crossing_point(f, level) if crossing is _UNKNOWN else crossing
    if t_star is None:
        return f
    if t_star == 0:
        # constant at level c (f(0) >= c)
        segs = [(0, f.domain_upper)] if f.domain_upper > 0 else []
        return PwlConcave(level, tuple(segs), f.domain_upper)
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
    return PwlConcave(f.value_at_zero, tuple(new), f.domain_upper)


def lift_identity(f: PwlConcave) -> PwlConcave:
    """The function t -> t + f(t); every slope increases by one."""
    return PwlConcave(
        f.value_at_zero,
        tuple((slope + 1, width) for slope, width in f.segments),
        f.domain_upper,
    )


@dataclass(frozen=True)
class SplitMap:
    """Record of a sup-convolution merge, for exact allocation read-back.

    ``entries`` lists every operand segment in merge order as
    (operand index, slope, width) triples with their full widths — the
    record may extend past the target, since :func:`split_at` needs the
    complete composition of the slope class the target lands in.
    :func:`split_at` walks the record to recover the canonical maximizing
    allocation at any point of the result's domain.
    """

    n_operands: int
    entries: tuple[tuple[int, int, Fraction], ...]
    target: Fraction


def supconv(
    fs: Sequence[PwlConcave], target_domain: RationalLike
) -> tuple[PwlConcave, SplitMap]:
    """Sup-convolution of ``fs`` restricted to [0, target_domain].

    Merges all operand segments by decreasing slope (ties broken by operand
    index, lowest first) and truncates at the target length, which must not
    exceed the sum of the operand domains (the allocation constraint is
    infeasible beyond it).  Returns the result together with the
    :class:`SplitMap` of consumed segments.

    The value at 0 is the sum of the operands' values at 0, and the result's
    superdifferential at any t is the intersection of the operands'
    superdifferentials at the canonical allocation — the standard
    sup-convolution calculus for concave functions.
    """
    if not fs:
        raise ValueError("supconv needs at least one operand")
    target = rat(target_domain)
    if target < 0:
        raise ValueError("target_domain must be nonnegative")
    cap = sum((f.domain_upper for f in fs), Fraction(0))
    if target > cap:
        raise ValueError(
            f"target_domain {target} exceeds total operand domain {cap}"
        )
    pool = [
        (slope, op, width)
        for op, f in enumerate(fs)
        for slope, width in f.segments
    ]
    # Highest slope first; operand index breaks ties deterministically.
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
    result = PwlConcave(value0, tuple(segs), target)
    entries = tuple((op, slope, width) for slope, op, width in pool)
    return result, SplitMap(len(fs), entries, target)


def split_at(sm: SplitMap, t: RationalLike) -> tuple[Fraction, ...]:
    """Canonical maximizing allocation (a_1, ..., a_K) with sum == t.

    Walks the merge record slope class by slope class.  Classes strictly
    above the landing slope are consumed whole; the class t lands in is
    shared among its member segments in proportion to their widths.  Any
    split of the landing class maximizes — proportional sharing is the
    canonical choice: it is symmetric, keeps every competing branch
    positively weighted, and is continuous in t.
    """
    x = rat(t)
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


def debug_dump(f: PwlConcave) -> str:
    """Plain-text dump: header ``f0 num/den U num/den`` then one
    ``slope width_num/width_den`` line per segment."""
    lines = [
        f"f0 {f.value_at_zero.numerator}/{f.value_at_zero.denominator} "
        f"U {f.domain_upper.numerator}/{f.domain_upper.denominator}"
    ]
    for slope, width in f.segments:
        lines.append(f"{slope} {width.numerator}/{width.denominator}")
    return "\n".join(lines)
