"""Optimal-policy extraction, least favorable distribution, evaluation.

From a solved :class:`~npkw.bellman.CostTable` this module extracts the
optimal randomized sequential test as a DAG of :class:`PolicyNode` records,
the *rule*, and reads the adversary's least favorable distribution (LFD)
along its histories:

* ``p_continue`` — probability the test takes another sample at this node
  (1 strictly inside the continuation region, 0 strictly inside the stopping
  region, and the exact randomization weight at threshold kinks);
* ``decision`` — which hypothesis is accepted when stopping here;
* ``e_enter`` / ``e_continue`` — integer labels: the expected number of
  remaining samples on entering the node, and conditional on continuing.
  Their ratio is exactly ``p_continue``;
* ``mass`` — which next symbols the LFD weights here.

The labels obey an equalization law: every child reached with positive LFD
probability carries the same ``e_enter``, equal to the parent's continuation
slope c, and ``e_continue = 1 + c``.  The continuation slope is the right
derivative of the node's sup-convolution slice at its adversary mass z0
(linearly extended at the right edge — the reading consistent with the
subtree's actual conditional expectations when a child is consumed to its
full domain).  Extraction validates these laws and raises
:class:`ExtractionError` on any inconsistency rather than patching over it.

A rule node stands for every history that reaches its count vector with
one promise and a mass z0 in a span, an interval of z0 on which the
extracted subtree is provably the same (see :func:`extract_tree`), and
identical subtrees are one node: the rule grows about like H**2 with the
horizon H, while the distinct (counts, z0, promise) grow about 10x per 10
samples.  ``evaluate``, ``verify_equalization``, ``verify_lfd_support``
and ``simulate``'s ``fixed`` and ``alternating`` strategies read the rule
alone.  z0 and the LFD are values of a history, not of a rule node:
:func:`lfd_tree` computes them along the paths from the root, once per
(rule node, z0), as :class:`PathNode` records, which the exports,
:func:`find_node` on such a tree and :func:`lfd_range` read, and which
the display cut of :func:`extract_tree` is made of; ``simulate``'s
``lfd`` strategy splits z0 the same way along the histories it draws.

The public fields and results are ``Fraction``s, but extraction and the
walks over the DAG run in integers.  :func:`~npkw.pwl.split_at` reads a
state's merge pool and returns the allocation of z0 over one denominator:
the LFD is the allocation over its sum, and a child's z0 is its entry
reduced by one gcd.  One integer scan gives both one-sided slopes of a
slice and the segment z0 lies in, and z0 is compared with the stopping
threshold and with the ends of spans by cross-multiplying.
Evaluation and the equalization certificate put every ``p_continue`` over
m, the lcm of their denominators: survival into depth n is an integer over
m**n, the base pass's per-count weights at depth n are over m**(n+1), a
probe of integers over P contracts them as integer monomials over P**n,
and the certificate's path values at j levels above the deepest one are
over m**j.  Each public number is one ``Fraction`` built at the end.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .bellman import (
    CostTable,
    DesignState,
    ExtractionError,
    NominalModel,
    _frac_str,
    _ratio_str,
)
from .pwl import PwlConcave, RationalLike, _fixed_str, _sides, rat, split_at


class Decision(Enum):
    """Terminal decision at a stopping node."""

    H1 = "H1"
    H2 = "H2"
    RANDOMIZED = "randomized"  # likelihoods tie exactly: fair coin


class PolicyNode:
    """One node of the extracted stopping rule.

    The rule is a DAG: a node stands for every history that reaches its
    count vector with the parent's promise ``e_enter`` and an adversary
    mass z0 in an interval on which the extracted subtree is the same, and
    identical subtrees are one object.  A node keeps what the test does
    there and no z0, so mutating a node changes it at every history that
    reaches it.  :func:`lfd_tree` gives z0 and the LFD at each history.

    ``decision`` is None while continuing for sure; ``e_continue``,
    ``mass``, ``children`` and ``merge`` are None at sure-stop nodes, and
    every other node has all k children.  ``mass[x]`` is true when the
    least favorable distribution puts positive probability on symbol x
    here (none does at a node entered with zero mass).  ``merge`` is the
    state's merge record and symbol map, which :func:`lfd_tree` splits z0
    with, and ``landing`` the merge pool's slope class (see
    :func:`_landing`) that the z0 the node was extracted at lies in, or
    None: inside that class the split is linear in z0.

    ``sure_stop_state`` records a fact about the *state*, not the extracted
    behaviour: the canonical design stops here for every positive adversary
    mass (the continuation value already matches the stopping cost at zero).
    A node entered with zero mass but a positive promise keeps continuing —
    cost-free, because of that exact tie — so the flag and ``p_continue``
    may disagree.
    """

    __slots__ = ("state", "e_enter", "e_continue", "p_continue", "decision",
                 "mass", "children", "sure_stop_state", "merge", "landing",
                 "_eval_cache")

    def __init__(self, state: DesignState, e_enter: int,
                 e_continue: Optional[int], p_continue: Fraction,
                 decision: Optional[Decision],
                 mass: Optional[tuple[bool, ...]],
                 children: Optional[tuple["PolicyNode", ...]],
                 sure_stop_state: bool = False,
                 merge: Optional[tuple] = None,
                 landing: Optional[tuple] = None) -> None:
        self.state = state
        self.e_enter = e_enter
        self.e_continue = e_continue
        self.p_continue = p_continue
        self.decision = decision
        self.mass = mass
        self.children = children
        self.sure_stop_state = sure_stop_state
        self.merge = merge
        self.landing = landing
        self._eval_cache = None  # see _eval_base

    @property
    def depth(self) -> int:
        return self.state.depth


_ZERO = Fraction(0)
_EVERYWHERE = (-1, 0, 1, 0)  # the span of a horizon node: -1/0 to 1/0


def extract_tree(table: CostTable, max_depth: Optional[int] = None):
    """Extract the optimal stopping rule from a solved cost table.

    Returns the root :class:`PolicyNode` of the rule DAG, or with
    ``max_depth`` the display tree: the :class:`PathNode` tree of the
    histories down to that depth, each with its adversary mass z0 and LFD,
    whose nodes at the cut have no children.  Down to the cut it is
    ``lfd_tree(extract_tree(table))``, but read off the table only that
    far, once per (counts, z0, promise), which costs less than extracting
    the whole rule; so an inconsistency of the table below the cut does
    not raise here.

    The root enters unconditionally; its ``e_enter`` is the right derivative
    of the root cost slice at z0 = 1 — the smallest expected sample size
    consistent with optimality.  Inside the tree each node's label is the
    parent's promise c; a hard :class:`ExtractionError` is raised whenever a
    promise falls outside the child's superdifferential (the equalization
    law would be violated, meaning the table is inconsistent).

    The rule is extracted top down, once per span: a span is an open
    interval of z0, for one count vector and promise, on which everything
    the subtree reads is provably the same.  A node's own span is the open
    segment of its cost slice and of its merge pool's landing slope class
    around z0, below the stopping threshold.  Inside it each child's mass
    is linear in z0, so each child's span pulls back to an interval of the
    parent's z0, which the node's span is cut to.  A z0 at 0, at a kink,
    at the threshold or with a child held at one point holds at that point
    alone.  A z0 that lands in a known span reuses its node; nodes are
    also hash-consed on what they keep.
    """
    if max_depth is None:
        return _extract(table)
    return _display(table, max_depth)


def _reader(table: CostTable) -> tuple[dict, Callable]:
    """The rows read so far, by count vector, and the function
    ``row(counts)`` that reads one more: what extraction reads of a state,
    as ``(state, stop decision, sure_state, rho, z0_star as a pair,
    (merge record, perm), child counts)`` with ``rho`` None at the
    horizon.  A mirror state (see :class:`~npkw.bellman.CostTable`) reads
    its partner's pool, and ``perm`` maps the partner's allocation to its
    own: its allocation to symbol x is the partner's to sigma(x)."""
    model = table.model
    k = model.alphabet_size
    # lam1 * z1 against lam2 * z2 decides a stop, cross-multiplied
    lam1, lam2 = model.lam1, model.lam2
    w1 = lam1.numerator * lam2.denominator
    w2 = lam2.numerator * lam1.denominator
    perm = None if table.sigma is None else itemgetter(*table.sigma)
    rows: dict[tuple[int, ...], tuple] = {}

    def row(counts: tuple[int, ...]) -> tuple:
        state = table.states[counts]
        lhs = w1 * state.z1_num  # z1 and z2 share their denominator
        rhs = w2 * state.z2_num
        decision = Decision.H1 if lhs > rhs else \
            Decision.H2 if lhs < rhs else Decision.RANDOMIZED
        if state.depth == model.horizon:
            got = (state, decision, True, None, None, None, None)
        else:
            z0_star = table.z0_star[counts]
            twin = table.twins.get(counts)
            # stopping already matches continuing at zero mass
            got = (state, decision, z0_star == 0, table.rho[counts],
                   None if z0_star is None else (z0_star.numerator,
                                                 z0_star.denominator),
                   (table.pools[counts], None) if twin is None else
                   (table.pools[twin], perm),
                   tuple(counts[:x] + (counts[x] + 1,) + counts[x + 1:]
                         for x in range(k)))
        rows[counts] = got
        return got

    return rows, row


def _check_stop(state: DesignState, promised: Optional[int]) -> None:
    if promised not in (None, 0):
        raise ExtractionError(
            f"state {state.counts}: parent promises {promised} remaining "
            "samples to a node that stops surely"
        )


def _labels(counts: tuple[int, ...], rho: PwlConcave, record: tuple,
            zn: int, zd: int, side: int,
            promised: Optional[int]) -> Optional[tuple]:
    """The labels of a node that may continue, at z0 = zn/zd below or at
    the threshold (``side`` <= 0): ``(e_enter, c, seg)``, c the promise to
    every child and ``seg`` as :func:`_slopes` gives it.  None where the
    node stops surely and its promise allows it."""
    lo, hi, d_left, d_right, seg = _slopes(rho, record, zn, zd, side)
    if zn and side:
        # Continuing is optimal (strictly below the kink).  The equalized
        # continuation slope c may sit anywhere in the superdifferential
        # of the continuation slice d at z0; the right derivative is the
        # canonical smallest choice, and a parent's promise pins the
        # choice instead where one exists.
        if promised is None:
            c = d_right
        else:
            c = promised - 1
            if not d_right <= c <= d_left:
                raise _outside(counts, zn, zd, d_left, d_right,
                               f"sure-continue promise {promised} needs "
                               f"slope {c}")
        e_enter = 1 + c
    else:
        # At the kink continuing ties stopping, whose weight is free: the
        # promise pins it.  At zero adversary mass the least favorable
        # distribution never comes here, so stopping and continuing cost
        # the same (the continuation value ties the stopping cost at
        # z0 = 0 whenever stopping is optimal); the node keeps the
        # parent's promise alive so that the expected sample size stays
        # equalized along *every* symbol path, not just the
        # positively-weighted ones.
        if not promised:
            return None
        e_enter = promised
        c = max(d_right, e_enter - 1)
        if zn and c > d_left:
            raise _outside(counts, zn, zd, d_left, d_right,
                           f"promise {e_enter} needs continuation slope "
                           f"{e_enter - 1}")

    # c counts the samples after this one, so it is at least 0; every
    # promise is then at least 0, and 0 <= e_enter <= e_continue follows
    if c < 0:
        raise ExtractionError(
            f"state {counts}: continuation slope {c} at z0 = "
            f"{Fraction(zn, zd)} is below 0"
        )
    # the entry label must be a supergradient of the node's own cost
    # slice (unbounded above at the left endpoint of the domain)
    if not (e_enter >= lo if zn == 0 else lo <= e_enter <= hi):
        raise ExtractionError(
            f"state {counts}: e_enter {e_enter} outside the "
            f"superdifferential [{lo}, {hi}] of the cost slice at "
            f"z0 = {Fraction(zn, zd)}"
        )
    return e_enter, c, seg


def _outside(counts: tuple[int, ...], zn: int, zd: int, d_left: int,
             d_right: int, need: str) -> ExtractionError:
    """The error for a continuation slope outside [d_right, d_left]; an
    empty interval means the cost slice, which gives d_left, and the merge
    pool, which gives d_right at a threshold, disagree."""
    if d_right > d_left:
        return ExtractionError(
            f"state {counts}: the cost slice and the merge pool disagree at "
            f"z0 = {Fraction(zn, zd)}: continuation slope {d_left} to the "
            f"left (cost slice), {d_right} to the right (merge pool)")
    return ExtractionError(
        f"state {counts}: {need}, outside [{d_right}, {d_left}]")


def _slopes(rho: PwlConcave, record: tuple, zn: int, zd: int,
            side: int) -> tuple:
    """``(lo, hi, d_left, d_right, seg)`` of a state at z0 = zn/zd below
    or at its threshold (``side`` <= 0): the cost slice's
    superdifferential, the continuation slice d's one-sided slopes (the
    right one linearly extended at the edge) and the open segment of the
    cost slice that z0 lies inside below the threshold, or None.  Below
    the threshold ``rho`` is z0 + d(z0); right of it, and at zero mass,
    d's slope is that of the merge pool's slope class there."""
    scale, pool = record
    if not zn:  # the pool covers [0, k], so it has a first class
        lo = rho.segs[0][0] if rho.segs else 0
        return lo, lo, pool[0][0], pool[0][0], None
    lo, hi, right, seg = _sides(rho, zn, zd)
    if side or zn == zd:
        return lo, hi, hi - 1, right - 1, seg if side else None
    xs, end = zn * scale, 0
    for slope, _, width in pool:  # the pool's slope class just right of z0
        end += width
        if end * zd > xs:
            break  # z0 < 1 lies inside the pool, which spans [0, k]
    return lo, hi, hi - 1, slope, None


def _lfd(merge: tuple, zn: int, alloc) -> tuple[tuple[int, ...], int]:
    """The LFD at a node that splits z0 = zn/zd into ``alloc``, as integers
    over their positive sum: the allocation, which sums to z0, or at zero
    mass the limiting direction of the allocation as z0 -> 0+, the merge's
    first slope class shared in proportion to its segment widths (uniform
    when the merge has no segment at all)."""
    if zn:
        return tuple(alloc), sum(alloc)
    (_, pool), perm = merge
    weights = [0] * len(alloc)
    for slope, op, width in pool:
        if slope != pool[0][0]:
            break
        weights[op] += width
    lfd = tuple(weights if perm is None else perm(weights))
    return (lfd, sum(lfd)) if any(lfd) else ((1,) * len(lfd), len(lfd))


def _extract(table: CostTable) -> PolicyNode:
    k = table.model.alphabet_size
    rows, row_of = _reader(table)
    stops: dict[tuple[int, ...], PolicyNode] = {}
    points: dict[tuple, PolicyNode] = {}  # (counts, promise, z0 pair)
    spans: dict[tuple, list] = {}  # (counts, promise) -> spans by lower end
    nodes: dict[tuple, PolicyNode] = {}  # hash-consing on the node's fields
    shared_p: dict[tuple[int, int], Fraction] = {}  # p_continue by labels

    def stop(row: tuple) -> PolicyNode:
        state = row[0]
        node = stops.get(state.counts)
        if node is None:
            node = stops[state.counts] = PolicyNode(
                state, 0, None, _ZERO, row[1], None, None, row[2])
        return node

    def extract(counts: tuple[int, ...], zn: int, zd: int,
                promised: Optional[int]) -> tuple[PolicyNode, Optional[tuple]]:
        """The node at z0 = zn/zd and its span ``(lo_n, lo_d, hi_n, hi_d,
        ...)``, an end over 0 being infinite, or None when the node is
        known to hold at this z0 alone."""
        row = rows.get(counts) or row_of(counts)
        if row[3] is None:  # the horizon stops at every mass
            _check_stop(row[0], promised)
            return stop(row), _EVERYWHERE
        # z0 against the threshold, cross-multiplied: > 0 past it, 0 at
        # it, and < 0 below it, where there is none, or at zero mass
        z0_star = row[4]
        side = -1 if not zn or z0_star is None else \
            zn * z0_star[1] - z0_star[0] * zd
        if side > 0:
            _check_stop(row[0], promised)
            return stop(row), (*z0_star, 1, 0)
        key = (counts, promised, zn, zd)
        node = points.get(key)
        if node is not None:
            return node, None
        box = spans.get((counts, promised))
        if box is not None:
            i = _first_above(box, zn, zd) if len(box) > 1 else \
                box[0][0] * zd < zn * box[0][1]
            if i:
                span = box[i - 1]
                if zn * span[3] < span[2] * zd:
                    return span[4], span
        node, span = extract_node(row, zn, zd, side, promised)
        if span is None:
            points[key] = node
        else:
            span = (*span, node)
            if box is None:
                spans[(counts, promised)] = [span]
            else:
                box.insert(_first_above(box, span[0], span[1]), span)
        return node, span

    def extract_node(row: tuple, zn: int, zd: int, side: int,
                     promised: Optional[int]) -> tuple:
        state, decision, sure_state, rho, z0_star, merge, kids = row
        record, perm = merge
        got = _labels(state.counts, rho, record, zn, zd, side, promised)
        if got is None:
            return stop(row), None
        e_enter, c, seg = got
        alloc, den = split_at(record, k, zn, zd)
        if perm is not None:
            alloc = perm(alloc)

        # the node's own span: the cost slice's open segment around z0,
        # below the threshold, inside the landing slope class of the pool
        span = shares = None
        landing = _landing(record, k, zn, zd) if seg is not None else None
        if landing is not None:
            scale = record[0]
            start, end, shares, taken = landing
            if perm is not None:
                shares, taken = perm(shares), perm(taken)
            width = end - start
            ln, ld = _larger(seg[0], rho.scale, start, scale)
            hn, hd = _smaller(seg[1], rho.scale, end, scale)
            if z0_star is not None:
                hn, hd = _smaller(hn, hd, *z0_star)

        children = []
        for x, kid in enumerate(kids):
            a = alloc[x]
            g = gcd(a, den)
            child, cspan = extract(kid, a // g, den // g, c)
            children.append(child)
            w = shares[x] if shares is not None else 0
            if w:
                # in the class, mass a(t) = (taken + w * (t * scale -
                # start) / width) / scale: a bound b of the child's span
                # pulls back to t = (start + (b * scale - taken) * width
                # / w) / scale
                if cspan is None:
                    shares = None
                    continue
                bn, bd = cspan[0], cspan[1]
                if bd:
                    ln, ld = _larger(
                        ln, ld,
                        start * w * bd + (bn * scale - taken[x] * bd) * width,
                        scale * w * bd)
                bn, bd = cspan[2], cspan[3]
                if bd:
                    hn, hd = _smaller(
                        hn, hd,
                        start * w * bd + (bn * scale - taken[x] * bd) * width,
                        scale * w * bd)
        if shares is not None:
            span = (*_reduced(ln, ld), *_reduced(hn, hd))

        children = tuple(children)
        e_continue = 1 + c
        mass = tuple(map(bool, alloc))
        fields = (state.counts, e_enter, e_continue, mass, children)
        node = nodes.get(fields)
        if node is None:
            labels = (e_enter, e_continue)
            p_continue = shared_p.get(labels)
            if p_continue is None:
                p_continue = shared_p[labels] = Fraction(e_enter, e_continue)
            node = nodes[fields] = PolicyNode(
                state, e_enter, e_continue, p_continue,
                decision if e_enter != e_continue else None, mass, children,
                sure_state, merge, landing)
        return node, span

    return extract((0,) * k, 1, 1, None)[0]


def _display(table: CostTable, max_depth: int) -> PathNode:
    """The display tree of :func:`extract_tree`: the same labels as the
    rule's, read at each (counts, z0, promise) down to ``max_depth``."""
    k = table.model.alphabet_size
    rows, row_of = _reader(table)
    memo: dict[tuple, PathNode] = {}
    shared_p: dict[tuple[int, int], Fraction] = {}

    def show(counts: tuple[int, ...], zn: int, zd: int,
             promised: Optional[int]) -> PathNode:
        key = (counts, zn, zd, promised)
        node = memo.get(key)
        if node is None:
            node = memo[key] = show_node(rows.get(counts) or row_of(counts),
                                         zn, zd, promised)
        return node

    def show_node(row: tuple, zn: int, zd: int,
                  promised: Optional[int]) -> PathNode:
        state, decision, sure_state, rho, z0_star, merge, kids = row
        got = None
        if rho is not None:
            side = -1 if not zn or z0_star is None else \
                zn * z0_star[1] - z0_star[0] * zd
            if side <= 0:
                got = _labels(state.counts, rho, merge[0], zn, zd, side,
                              promised)
        if got is None:  # the horizon, past the threshold, or a free stop
            _check_stop(state, promised)
            return PathNode(state, 0, None, _ZERO, decision, sure_state,
                            zn, zd, None, None, None)
        e_enter, c, _ = got
        record, perm = merge
        alloc, den = split_at(record, k, zn, zd)
        if perm is not None:
            alloc = perm(alloc)
        lfd, lfd_den = _lfd(merge, zn, alloc)
        children = None
        if state.depth < max_depth:
            children = tuple([show(kid, a // (g := gcd(a, den)), den // g, c)
                              for kid, a in zip(kids, alloc)])
        labels = (e_enter, 1 + c)
        p_continue = shared_p.get(labels)
        if p_continue is None:
            p_continue = shared_p[labels] = Fraction(e_enter, 1 + c)
        return PathNode(state, e_enter, 1 + c, p_continue,
                        decision if c + 1 != e_enter else None, sure_state,
                        zn, zd, lfd, lfd_den, children)

    return show((0,) * k, 1, 1, None)


def _landing(record: tuple, k: int, zn: int, zd: int) -> Optional[tuple]:
    """The slope class of a merge pool that z0 = zn/zd lies strictly
    inside, over the pool's scale: its start and end, each operand's width
    in it and each operand's allocation before it; None when z0 is at a
    class boundary."""
    scale, pool = record
    xs = zn * scale  # z0 over scale * zd
    taken = [0] * k
    start = 0
    i, n = 0, len(pool)
    while i < n:
        slope = pool[i][0]
        end, j = start, i
        while j < n and pool[j][0] == slope:
            end += pool[j][2]
            j += 1
        if end * zd > xs:
            if start * zd == xs:
                return None
            widths = [0] * k
            for _, op, width in pool[i:j]:
                widths[op] += width
            return start, end, widths, taken
        for _, op, width in pool[i:j]:
            taken[op] += width
        start, i = end, j
    return None


def _alloc(record: tuple, landing: Optional[tuple], k: int, zn: int,
           zd: int) -> tuple[list[int], int]:
    """``split_at(record, k, zn, zd)``, read off ``landing``, a slope class
    of :func:`_landing`, without a scan of the pool when z0 = zn/zd is
    strictly inside it: each operand gets what it took before the class
    and the share of its width in the class, over the same denominator."""
    if landing is not None:
        start, end, widths, taken = landing
        x = zn * record[0] - start * zd  # z0 past the class start
        cq = (end - start) * zd
        if 0 < x < cq:
            return [t * cq + w * x for t, w in zip(taken, widths)], \
                cq * record[0]
    return split_at(record, k, zn, zd)


def _first_above(box: list, zn: int, zd: int) -> int:
    """The number of spans in ``box`` whose lower end is below zn/zd."""
    lo, hi = 0, len(box)
    while lo < hi:
        mid = (lo + hi) // 2
        span = box[mid]
        if span[0] * zd < zn * span[1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _larger(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    return (bn, bd) if bn * ad > an * bd else (an, ad)


def _smaller(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    return (bn, bd) if bn * ad < an * bd else (an, ad)


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return n // g, d // g


class PathNode:
    """The design at the histories that reach one count vector with one
    adversary mass z0 and one promise.

    It has the labels of the rule node there (``state``, ``e_enter``,
    ``e_continue``, ``p_continue``, ``decision``, ``sure_stop_state``) and
    what the adversary plays there: z0 as its reduced pair ``z0_num /
    z0_den`` and the LFD, the adversary's conditional PMF of the next
    symbol, as the integers ``lfd_num`` over the positive ``lfd_den``
    (None at a sure stop); ``z0`` and ``lfd_probs`` are their ``Fraction``
    views.  ``children`` is None at a sure stop and at a display cut,
    where the node may continue; :func:`lfd_tree` builds them on first
    read.
    """

    __slots__ = ("state", "e_enter", "e_continue", "p_continue", "decision",
                 "sure_stop_state", "z0_num", "z0_den", "lfd_num", "lfd_den",
                 "children")

    def __init__(self, state: DesignState, e_enter: int,
                 e_continue: Optional[int], p_continue: Fraction,
                 decision: Optional[Decision], sure_stop_state: bool,
                 z0_num: int, z0_den: int,
                 lfd_num: Optional[tuple[int, ...]], lfd_den: Optional[int],
                 children: Optional[tuple["PathNode", ...]]) -> None:
        self.state = state
        self.e_enter = e_enter
        self.e_continue = e_continue
        self.p_continue = p_continue
        self.decision = decision
        self.sure_stop_state = sure_stop_state
        self.z0_num = z0_num
        self.z0_den = z0_den
        self.lfd_num = lfd_num
        self.lfd_den = lfd_den
        self.children = children

    @property
    def depth(self) -> int:
        return self.state.depth

    @property
    def z0(self) -> Fraction:
        return Fraction(self.z0_num, self.z0_den)

    @property
    def lfd_probs(self) -> Optional[tuple[Fraction, ...]]:
        if self.lfd_num is None:
            return None
        den = self.lfd_den
        return tuple(Fraction(n, den) for n in self.lfd_num)


def _split(node: PolicyNode, zn: int, zd: int) -> tuple:
    """What the adversary plays at a rule node that may continue, entered
    with mass z0 = zn/zd: the LFD as integers over their positive sum, and
    each child's mass as a reduced pair."""
    merge = node.merge
    alloc, den = _alloc(merge[0], node.landing, len(node.children), zn, zd)
    if merge[1] is not None:
        alloc = merge[1](alloc)
    return (*_lfd(merge, zn, alloc),
            [(a // (g := gcd(a, den)), den // g) for a in alloc])


class _GrowingPathNode(PathNode):
    """A :class:`PathNode` of :func:`lfd_tree`, whose ``children`` slot
    stays unset until its first read; ``_grow`` holds what builds them:
    the function from a rule node and a mass to its PathNode, the rule
    node's children and their masses."""

    __slots__ = ("_grow",)

    def __getattr__(self, name: str):
        # reached only for an unset slot: the children still to grow
        if name != "children":
            raise AttributeError(name)
        at, kids, masses = self._grow
        self.children = got = tuple([at(kid, *z)
                                     for kid, z in zip(kids, masses)])
        return got


def lfd_tree(root: PolicyNode) -> PathNode:
    """The rule from ``root`` with the adversary's mass z0 and its LFD at
    each history, z0 = 1 at ``root``: a :class:`PathNode` tree, one node
    per (rule node, z0), whose children are split from the state's merge
    pool when first read."""
    memo: dict[tuple, PathNode] = {}

    def at(node: PolicyNode, zn: int, zd: int) -> PathNode:
        key = (node, zn, zd)
        got = memo.get(key)
        if got is not None:
            return got
        kids = node.children
        if kids is None:
            got = PathNode(node.state, node.e_enter, node.e_continue,
                           node.p_continue, node.decision,
                           node.sure_stop_state, zn, zd, None, None, None)
        else:
            lfd, lfd_den, masses = _split(node, zn, zd)
            got = _GrowingPathNode(
                node.state, node.e_enter, node.e_continue, node.p_continue,
                node.decision, node.sure_stop_state, zn, zd, lfd, lfd_den,
                None)
            del got.children
            got._grow = at, kids, masses
        memo[key] = got
        return got

    return at(root, 1, 1)


# ---------------------------------------------------------------------------
# tree walks
# ---------------------------------------------------------------------------

def iter_nodes(root: PolicyNode) -> Iterator[PolicyNode]:
    """Preorder traversal of the virtual tree (shared subtrees re-yielded
    once per occurrence — see :func:`iter_unique_nodes`)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node.children:
            stack.extend(reversed(node.children))


def iter_unique_nodes(root: PolicyNode) -> Iterator[PolicyNode]:
    """Each distinct node object once.  The rule and the PathNode trees
    share subtrees, so both are DAGs; node-local queries should walk them
    this way."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if node.children:
            stack.extend(reversed(node.children))


def _rule(root: PolicyNode) -> PolicyNode:
    """``root``, after checking that it is a rule and not a PathNode tree,
    which may be cut at a display depth."""
    if not isinstance(root, PolicyNode):
        raise ValueError("not the rule DAG: a PathNode tree may be cut at a "
                         "display depth limit; pass extract_tree(table) "
                         "with max_depth=None")
    return root


def _levels(root: PolicyNode) -> list[list[PolicyNode]]:
    """Unique nodes level by level below the root (every parent sits one
    level above its children)."""
    levels = []
    level = [_rule(root)]
    seen = {id(root)}
    while level:
        levels.append(level)
        below = []
        for node in level:
            for child in node.children or ():
                if id(child) not in seen:
                    seen.add(id(child))
                    below.append(child)
        level = below
    return levels


def _survival_scale(levels: list[list[PolicyNode]]) -> int:
    """The lcm m of the denominators of every ``p_continue``: a product of
    n of them is an integer over m**n."""
    return lcm(*{node.p_continue.denominator
                 for level in levels for node in level})


def max_conditional_remaining(root: PolicyNode) -> int:
    """Largest e_continue over randomized nodes (0 < p_continue < 1): the
    worst expected remaining sample size conditional on continuing at a
    genuine stop-or-continue coin flip.  0 when nothing randomizes."""
    best = 0
    for node in iter_unique_nodes(root):
        if node.e_continue is not None and 0 < node.p_continue < 1:
            best = max(best, node.e_continue)
    return best


def lfd_range(root: PolicyNode | PathNode,
              symbol: int = 1) -> tuple[Fraction, Fraction]:
    """Range of the least favorable probability of ``symbol`` over nodes the
    adversary actually randomizes at, over ``lfd_tree(root)`` for a rule
    root and over a PathNode tree (a display cut, say) as it is.

    Nodes with z0 = 0 never occur under the least favorable distribution and
    carry a limiting-direction convention rather than a real conditional
    law; transition probabilities of exactly 0 or 1 mark branches the
    adversary abandons because the next sample surely ends the test there.
    Both are excluded — the range covers the genuine randomized transitions.
    """
    lo: Optional[tuple[int, int]] = None  # as (numerator, denominator)
    hi: Optional[tuple[int, int]] = None
    if isinstance(root, PolicyNode):
        root = lfd_tree(root)
    for node in iter_unique_nodes(root):
        if node.lfd_num is None or node.p_continue == 0 or node.z0_num == 0:
            continue
        n, d = node.lfd_num[symbol], node.lfd_den
        if not 0 < n < d:
            continue
        # compared with the extremes so far, cross-multiplied
        if lo is None or n * lo[1] < lo[0] * d:
            lo = n, d
        if hi is None or n * hi[1] > hi[0] * d:
            hi = n, d
    if lo is None:
        raise ValueError("empty tree: no randomized transitions to range over")
    return Fraction(*lo), Fraction(*hi)


def find_node(root, symbols: tuple[int, ...]):
    """Follow a symbol path from ``root``, a rule node or a PathNode, to a
    node of the same kind.  Raises ``KeyError``, naming the path, on a
    symbol outside 0..K-1 and on a path that leaves the materialized tree
    at a sure stop or at the display cut of a PathNode tree."""
    k = len(root.state.counts)
    node = root
    for x in symbols:
        if x not in range(k):
            raise KeyError(f"path {symbols}: symbol {x!r} is outside the "
                           f"alphabet 0..{k - 1}")
        if node.children is None:
            where = "the display cut" if node.p_continue else "a sure stop"
            raise KeyError(f"path {symbols} leaves the materialized tree at "
                           f"{where} at depth {node.depth}")
        node = node.children[x]
    return node


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

class EvalReport(NamedTuple):
    """Exact performance of the design under an i.i.d. probe distribution.

    ``expected_sample_size`` and ``stop_time_pmf`` are under the probe;
    ``alpha1`` = P(accept H2 | data ~ P1) and ``alpha2`` = P(accept H1 |
    data ~ P2) do not depend on the probe — they are recomputed on the same
    walk from the per-state likelihoods and reported alongside.
    """

    probe: tuple[Fraction, ...]
    expected_sample_size: Fraction
    alpha1: Fraction
    alpha2: Fraction
    stop_time_pmf: tuple[tuple[int, Fraction], ...]


def evaluate(root: PolicyNode, probe: list[RationalLike]) -> EvalReport:
    """Exact forward accounting of the design against an i.i.d. probe.

    The probe is a PMF over the alphabet (degenerate entries allowed).  The
    stopping randomizations are independent of the data, so the walk carries
    the probe likelihood and the survival product separately.
    """
    k = len(root.state.counts)
    pmf = tuple(rat(v) for v in probe)
    if len(pmf) != k or any(v < 0 for v in pmf) or sum(pmf) != 1:
        raise ValueError("probe must be a PMF over the model alphabet")

    alpha1, alpha2, m, cont_w, stop_w = _eval_base(root)

    # Every history reaching a state has the same probe likelihood (it is a
    # function of the symbol counts alone), so the probe-independent
    # survival aggregates cached per count vector contract the whole walk
    # to one term per reachable count class.  With the probe as integers
    # q[x] over P, a depth-n likelihood is the monomial prod q[x]**c[x] over
    # P**n, and the depth-n aggregates are over m**(n+1): each depth
    # contracts to one integer over P**n * m**(n+1).
    den = lcm(*(v.denominator for v in pmf))
    powers = []
    for v in pmf:
        q = v.numerator * (den // v.denominator)
        row = [1]
        for _ in range(len(cont_w)):
            row.append(row[-1] * q)
        powers.append(row)

    def contract(weights: dict[tuple[int, ...], int]) -> int:
        total = 0
        for counts, weight in weights.items():
            for x, c in enumerate(counts):
                if c:
                    weight *= powers[x][c]
            total += weight
        return total

    # sums over depths by Horner's rule, over (P*m)**(depths - 1) * m
    scale = den * m
    one = scale ** (len(cont_w) - 1) * m
    e_num = 0
    for level in cont_w:
        e_num = e_num * scale + contract(level)

    rows = []
    total = 0
    for n, level in enumerate(stop_w):
        mass = contract(level)
        total = total * scale + mass
        if mass:
            rows.append((n, Fraction(mass, den ** n * m ** (n + 1))))
    assert total == one, f"stop-time PMF sums to {Fraction(total, one)}"
    return EvalReport(pmf, Fraction(e_num, one), alpha1, alpha2, tuple(rows))


def _eval_base(root: PolicyNode) -> tuple[
    Fraction, Fraction, int,
    list[dict[tuple[int, ...], int]], list[dict[tuple[int, ...], int]],
]:
    """Probe-independent evaluation aggregates, cached on the root.

    One pass over the shared structure, level by level, computes the
    survival-only path aggregate ``srv[n] = sum over histories reaching n
    of survival`` (the stopping coins are data-independent) and from it

    * the two error probabilities, which integrate the per-state
      hypothesis likelihoods against ``srv`` and do not depend on any
      probe at all, and
    * per count vector, the total continuation weight ``sum srv * p`` and
      stopping weight ``sum srv * (1 - p)``: contracting a probe against
      these is exact because the probe likelihood of a history is a
      function of its symbol counts alone.

    Everything is an integer over one denominator per depth: with m from
    :func:`_survival_scale`, survival into depth n is over m**n, and the
    weights of depth n, one list entry per depth, are over m**(n+1).  The
    errors of depth n are over 2 * D**n * m**(n+1), D**n the states'
    likelihood denominator there (see :class:`~npkw.bellman.DesignState`);
    one ``Fraction`` per depth is summed.  Returns
    ``(alpha1, alpha2, m, continuation weights, stopping weights)``.

    The result is cached on the root, which assumes the tree is not
    mutated after its first evaluation.
    """
    cached = _rule(root)._eval_cache
    if cached is not None:
        return cached

    levels = _levels(root)
    m = _survival_scale(levels)
    alpha1 = alpha2 = _ZERO
    cont_w: list[dict[tuple[int, ...], int]] = []
    stop_w: list[dict[tuple[int, ...], int]] = []
    srv = {id(root): 1}
    scale = m  # m**(n+1) at depth n
    for level in levels:
        go_w: dict[tuple[int, ...], int] = {}
        stop: dict[tuple[int, ...], int] = {}
        # per count vector: its state, then twice the stopped weight that
        # errs under H1 (deciding H2) and under H2 (deciding H1)
        errs: dict[tuple[int, ...], list] = {}
        for node in level:
            sr = srv.get(id(node))
            if not sr:
                continue
            p = node.p_continue
            pn, pd = p.numerator, p.denominator
            sr *= m // pd
            counts = node.state.counts
            if pn < pd:
                stopped = sr * (pd - pn)
                stop[counts] = stop.get(counts, 0) + stopped
                decision = node.decision
                if decision is not None:
                    err = errs.get(counts)
                    if err is None:
                        err = errs[counts] = [node.state, 0, 0]
                    if decision is Decision.H2:
                        err[1] += 2 * stopped
                    elif decision is Decision.H1:
                        err[2] += 2 * stopped
                    else:
                        err[1] += stopped
                        err[2] += stopped
            if pn:
                go = sr * pn
                go_w[counts] = go_w.get(counts, 0) + go
                for child in node.children:
                    cid = id(child)
                    srv[cid] = srv.get(cid, 0) + go
        if errs:
            e1 = e2 = 0
            for state, w1, w2 in errs.values():
                e1 += state.z1_num * w1
                e2 += state.z2_num * w2
            like = state.den  # every state of a depth has D**n
            alpha1 += Fraction(e1, 2 * like * scale)
            alpha2 += Fraction(e2, 2 * like * scale)
        cont_w.append(go_w)
        stop_w.append(stop)
        scale *= m

    base = root._eval_cache = (alpha1, alpha2, m, cont_w, stop_w)
    return base


# ---------------------------------------------------------------------------
# verification: equalization and LFD support
# ---------------------------------------------------------------------------

class EqualizationCertificate(NamedTuple):
    """Path-wise check that the design equalizes expected sample size.

    For every maximal symbol path, the conditional expected sample size
    (computed from the stopping probabilities alone — the labels are not
    trusted) must not exceed ``c_root``, with equality on every path the
    adversary can follow with positive probability.
    """

    c_root: int
    passes: bool
    max_path_expectation: Fraction
    q0_path_expectations_equal: bool
    n_paths: int
    n_q0_positive_paths: int
    violating_paths: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __bool__(self) -> bool:
        return self.passes


def verify_equalization(root: PolicyNode) -> EqualizationCertificate:
    """Check the certificate bottom-up over the shared structure.

    Per node (children first) we compute, from the stopping probabilities
    alone, the conditional expected remaining sample size along (a) the
    worst symbol path and (b) the positively-weighted paths — the latter as
    a single value when all of them agree and ``None`` otherwise.  The
    per-path quantities the certificate is defined over fold through
    ``e = p * (1 + e_child)``, so the recursion reproduces the exhaustive
    path walk exactly while touching each distinct node once.  With m from
    :func:`_survival_scale`, every value at the level ``last - j`` is an
    integer over m**j, so ``max`` and the equality tests compare ints.
    """
    levels = _levels(root)
    m = _survival_scale(levels)
    c_root = root.e_enter

    max_e: dict[int, int] = {}       # worst path from here
    eq: dict[int, Optional[int]] = {}  # common positive-path value
    n_paths: dict[int, int] = {}
    n_pos: dict[int, int] = {}
    dens = []  # the denominator of each level, deepest first

    below, den = 0, 1  # the denominators of the level below and of this one
    for level in reversed(levels):
        for node in level:
            nid = id(node)
            p = node.p_continue
            if not p:
                max_e[nid] = 0
                eq[nid] = 0
                n_paths[nid] = 1
                n_pos[nid] = 1
                continue
            kids = node.children
            lfd = node.mass
            f = p.numerator * (m // p.denominator)
            max_e[nid] = f * (below + max(max_e[id(ch)] for ch in kids))
            n_paths[nid] = sum(n_paths[id(ch)] for ch in kids)
            vals = {eq[id(ch)] for x, ch in enumerate(kids) if lfd[x]}
            eq[nid] = f * (below + vals.pop()) \
                if len(vals) == 1 and None not in vals else None
            n_pos[nid] = sum(n_pos[id(ch)]
                             for x, ch in enumerate(kids) if lfd[x])
        dens.append(den)
        below, den = den, den * m
    dens.reverse()

    top = c_root * dens[0]
    pos_equal = eq[id(root)] == top
    ok = pos_equal and max_e[id(root)] <= top
    violating: list[tuple[tuple[int, ...], Fraction]] = []
    if not ok:
        violating = _equalization_witnesses(root, c_root, max_e, eq, dens)

    return EqualizationCertificate(
        c_root=c_root,
        passes=ok,
        max_path_expectation=Fraction(max_e[id(root)], dens[0]),
        q0_path_expectations_equal=pos_equal,
        n_paths=n_paths[id(root)],
        n_q0_positive_paths=n_pos[id(root)],
        violating_paths=tuple(violating),
    )


def _equalization_witnesses(
    root: PolicyNode,
    c_root: int,
    max_e: dict[int, int],
    eq: dict[int, Optional[int]],
    dens: list[int],
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Concrete offending paths for a failed certificate (up to 8).

    Walks only subtrees known to contain a deviation: a positive path whose
    expectation differs from ``c_root``, or the worst path when it exceeds
    ``c_root``.  The DFS carries absolute survival and accumulated
    expectation like the exhaustive walk would.  ``max_e`` and ``eq`` are
    over ``dens[n]`` at the level n below the root.
    """
    found: list[tuple[tuple[int, ...], Fraction]] = []

    # worst path, when it overshoots
    if max_e[id(root)] > c_root * dens[0]:
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

    # positive paths that miss c_root; prune equalized-and-correct subtrees
    stack = [(root, (), Fraction(1), Fraction(0))]
    while stack and len(found) < 8:
        node, path, surv, acc = stack.pop()
        surv = surv * node.p_continue
        acc = acc + surv
        if surv == 0 or node.children is None:
            if acc != c_root:
                found.append((path, acc))
            continue
        for x, child in enumerate(node.children):
            if not node.mass[x]:
                continue
            v = eq[id(child)]
            if v is not None and \
                    acc + surv * Fraction(v, dens[len(path) + 1]) == c_root:
                continue  # every positive path below lands exactly right
            stack.append((child, path + (x,), surv, acc))
    return found


class LfdSupportReport(NamedTuple):
    """Support check for the least favorable distribution.

    Wherever the adversary actually plays (a rule node that may continue
    and whose ``mass`` weights some symbol, which is z0 > 0), it must put
    positive mass on every symbol both hypotheses can produce.  The one
    exception: a branch may get zero mass when the state it leads to stops
    surely anyway — the sample taken on entering it would have been the
    last.  Mass placed *outside* the mutual support
    kills one hypothesis's likelihood, so it is only allowed where every
    next state stops surely.  ``offending`` names one symbol path per
    violating rule node, the first that depth-first search reaches, sorted.
    """

    passes: bool
    mutual_support: tuple[int, ...]
    offending: tuple[tuple[int, ...], ...]

    def __bool__(self) -> bool:
        return self.passes


def verify_lfd_support(root: PolicyNode, model: NominalModel) -> LfdSupportReport:
    support = tuple(
        x for x in range(model.alphabet_size)
        if model.p1[x] > 0 and model.p2[x] > 0
    )
    offending: list[tuple[int, ...]] = []
    seen: set[int] = set()
    stack: list[tuple[PolicyNode, tuple[int, ...]]] = [(_rule(root), ())]
    while stack:
        node, path = stack.pop()
        if id(node) in seen:
            continue  # shared subtree: checked at its first occurrence
        seen.add(id(node))
        if not node.p_continue:
            continue
        mass = node.mass
        if any(mass):  # entered with positive mass
            bad = any(
                not mass[x] and not node.children[x].sure_stop_state
                for x in support
            )
            outside = any(
                mass[x] for x in range(len(mass)) if x not in support
            )
            if outside and not all(ch.sure_stop_state for ch in node.children):
                bad = True
            if bad:
                offending.append(path)
        for x, child in enumerate(node.children):
            stack.append((child, path + (x,)))
    return LfdSupportReport(
        passes=not offending,
        mutual_support=support,
        offending=tuple(sorted(offending)),
    )


# ---------------------------------------------------------------------------
# seeded simulation
# ---------------------------------------------------------------------------

class SimReport(NamedTuple):
    trials: int
    seed: int
    strategy: str
    mean_sample_size: Fraction
    freq_h1: Fraction
    freq_h2: Fraction
    max_sample_size: int


_UNIT = 1 << 64  # draws are 64-bit integers u standing for u / 2**64


def _cut(num: int, den: int) -> int:
    """The least 64-bit draw u with u / 2**64 >= num / den: u is an
    integer, so u * den >= num * 2**64 holds exactly when
    u >= ceil(num * 2**64 / den)."""
    return -(-num * _UNIT // den)


def _symbol_cuts(nums: Iterable[int], den: int) -> tuple[int, ...]:
    """The cutoffs of a PMF given as integers over ``den``: a draw u picks
    symbol ``bisect_right(cuts, u)``, the first x with u / 2**64 below the
    running sum up to x, or the last symbol when there is none.  The last
    running sum is left out, so a draw in the top residue of a PMF that
    sums to less than one picks the last symbol."""
    return tuple(_cut(c, den) for c in accumulate(nums))[:-1]


def simulate(
    root: PolicyNode,
    trials: int,
    seed: int,
    strategy: str = "fixed",
    pmf: Optional[list[RationalLike]] = None,
) -> SimReport:
    """Monte Carlo runs of the design against a data-generating strategy.

    Strategies:
        ``fixed``       i.i.d. symbols from ``pmf``;
        ``alternating`` deterministic cycle 0, 1, ..., K-1, 0, ...;
        ``lfd``         replay the adversary: sample each symbol from the
                        LFD PMF at the current history, split off z0 once
                        per (rule node, z0) as in :func:`lfd_tree`.

    Determinism: one call seeds one ``random.Random(str(seed))`` (string
    seeding is stable across platforms and keeps ``-7`` apart from ``7``),
    and trials 0, 1, ... take its draws in order: a draw to stop, then one
    for a randomized decision or the next symbol.  A run of n trials is a
    prefix of a longer one; trial t cannot be replayed without trials
    0..t-1.  All comparisons are exact: a 64-bit draw u stands for the
    dyadic u / 2**64, and each node turns its stopping probability and its
    symbol PMF into integer cutoffs (:func:`_cut`) that u is compared with,
    biasing each event by less than 2**-64.  A PathNode tree (a display
    cut) raises ``ValueError``, and so do fewer than one trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    k = len(_rule(root).state.counts)
    fixed_cuts = None
    if strategy == "fixed":
        if pmf is None:
            raise ValueError("fixed strategy needs a pmf")
        fixed = tuple(rat(v) for v in pmf)
        if len(fixed) != k or any(v < 0 for v in fixed) or sum(fixed) != 1:
            raise ValueError("pmf must be a PMF over the model alphabet")
        den = lcm(*(p.denominator for p in fixed))
        fixed_cuts = _symbol_cuts(
            (p.numerator * (den // p.denominator) for p in fixed), den)
    elif strategy == "lfd":
        root = (root, 1, 1)
    elif strategy != "alternating":
        raise ValueError(f"unknown strategy {strategy!r}")
    alternating = strategy == "alternating"

    # per node, built on the first visit: the stop cutoff, the decision,
    # the children and the symbol cutoffs.  The lfd strategy walks (rule
    # node, z0 pair) tuples, one object per pair, with their own cutoffs.
    seen: dict[int, tuple] = {}
    pairs: dict[tuple, tuple] = {}

    def visit(key) -> tuple:
        node, cuts = key, fixed_cuts
        if strategy == "lfd":
            node, zn, zd = key
        children = node.children
        if strategy == "lfd" and children is not None:
            lfd, lfd_den, masses = _split(node, zn, zd)
            cuts = _symbol_cuts(lfd, lfd_den)
            children = tuple([pairs.setdefault(q := (kid, *z), q)
                              for kid, z in zip(children, masses)])
        p = node.p_continue
        seen[id(key)] = got = (_cut(p.numerator, p.denominator),
                               node.decision, children, cuts)
        return got

    total_tau = 0
    max_tau = 0
    n_h1 = 0
    bits = random.Random(str(seed)).getrandbits
    get = seen.get
    h1, randomized = Decision.H1, Decision.RANDOMIZED
    half = _UNIT // 2  # a randomized stop decides H1 when u / 2**64 < 1/2
    for _ in range(trials):
        node = root
        steps = 0
        while True:
            cut, decision, children, cuts = get(id(node)) or visit(node)
            if bits(64) >= cut:
                if decision is h1 or decision is randomized and \
                        bits(64) < half:
                    n_h1 += 1
                break
            node = children[steps % k if alternating
                            else bisect_right(cuts, bits(64))]
            steps += 1
        total_tau += steps
        if steps > max_tau:
            max_tau = steps

    return SimReport(
        trials=trials, seed=seed, strategy=strategy,
        mean_sample_size=Fraction(total_tau, trials),
        freq_h1=Fraction(n_h1, trials),
        freq_h2=Fraction(trials - n_h1, trials),
        max_sample_size=max_tau,
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

_STOP_COLORS = {
    Decision.H1: "#b3d1ff",
    Decision.H2: "#ffbdbd",
    Decision.RANDOMIZED: "#e0c7f5",
}


def _dot_attrs(node: PathNode) -> tuple[str, tuple[str, ...]]:
    """A node's DOT attribute list and the labels of its child edges."""
    if node.p_continue == 0:
        return f'[label="0", fillcolor="{_STOP_COLORS[node.decision]}"];', ()
    p_stop = 1 - node.p_continue
    # white at p_stop = 0 down to mid-gray at p_stop = 1
    level = 255 - int(round(96 * float(p_stop)))
    attrs = (f'[label="{node.e_enter}/{node.e_continue}", '
             f'fillcolor="#{level:02x}{level:02x}{level:02x}"];')
    if node.children is None:
        return attrs, ()
    den = node.lfd_den
    return attrs, tuple(
        f'[label="{_ratio_str(n, den)} ({_fixed_str(n, den, 6)})"];'
        for n in node.lfd_num)


def tree_to_dot(root: PathNode) -> str:
    """Graphviz rendering of a PathNode tree (:func:`lfd_tree`, or
    :func:`extract_tree` with ``max_depth``).

    Node label: ``e_enter/e_continue`` while continuing is possible, plain
    ``0`` at sure stops.  Sure stops are colored by decision; mixed nodes
    are shaded gray proportionally to their stopping probability.  Edge
    label: the LFD transition probability as an exact rational with a
    6-digit decimal alongside.  Nodes are named ``n<k>`` in preorder over
    the virtual tree; each distinct node's attributes are formatted once.
    """
    lines = [
        "digraph policy {",
        '  node [shape=circle, style=filled, fontname="Helvetica"];',
        '  edge [fontname="Helvetica", fontsize=10];',
    ]
    attrs: dict[int, tuple[str, tuple[str, ...]]] = {}
    append = lines.append
    counter = 0

    def emit(node: PathNode) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        got = attrs.get(id(node))
        if got is None:
            got = attrs[id(node)] = _dot_attrs(node)
        attr, labels = got
        append(f"  {name} {attr}")
        if labels:
            for child, label in zip(node.children, labels):
                append(f"  {name} -> {emit(child)} {label}")
        return name

    emit(root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_pieces(node: PathNode, level: int) -> tuple[str, str, str]:
    """A node's JSON text around its children, at ``level`` below the root
    of the export: the text before the first child, between two children,
    and after the last (the whole node, then "" and "", at a leaf)."""
    pad0, pad1, pad2 = (" " * (2 * level + i) for i in range(3))
    lfd = "null" if not node.lfd_num else "[\n" + ",\n".join(
        f'{pad2}"{_ratio_str(n, node.lfd_den)}"' for n in node.lfd_num) \
        + f"\n{pad1}]"
    counts = ",\n".join(f"{pad2}{c}" for c in node.state.counts)
    decision = "null" if node.decision is None else f'"{node.decision.value}"'
    e_continue = "null" if node.e_continue is None else node.e_continue
    fields = (f'{pad1}"counts": [\n{counts}\n{pad1}],\n'
              f'{pad1}"decision": {decision},\n'
              f'{pad1}"depth": {node.depth},\n'
              f'{pad1}"e_continue": {e_continue},\n'
              f'{pad1}"e_enter": {node.e_enter},\n'
              f'{pad1}"lfd": {lfd},\n'
              f'{pad1}"p_continue": "{_frac_str(node.p_continue)}",\n'
              f'{pad1}"z0": "{node.z0_num}/{node.z0_den}"\n{pad0}}}')
    if node.children is None:
        return f'{{\n{pad1}"children": null,\n{fields}', "", ""
    return (f'{{\n{pad1}"children": [\n{pad2}', f",\n{pad2}",
            f"\n{pad1}],\n{fields}")


def tree_to_json(root: PathNode) -> str:
    """Nested JSON text of a PathNode tree; rationals as "num/den" strings.

    The text is exactly what ``json.dumps(..., sort_keys=True, indent=1)``
    prints for one record per virtual node with its children nested.  A
    node's indentation is a function of its depth below ``root``, so each
    distinct node is formatted once and one walk over the virtual tree
    joins the pieces.
    """
    pieces: list[str] = []
    cache: dict[int, tuple[str, str, str]] = {}
    base = root.depth

    def walk(node: PathNode) -> None:
        got = cache.get(id(node))
        if got is None:
            got = cache[id(node)] = _json_pieces(node, node.depth - base)
        head, sep, tail = got
        pieces.append(head)
        if node.children is not None:
            for i, child in enumerate(node.children):
                if i:
                    pieces.append(sep)
                walk(child)
            pieces.append(tail)

    walk(root)
    return "".join(pieces)
