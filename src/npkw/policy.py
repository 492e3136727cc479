"""Optimal-policy extraction, least favorable distribution, evaluation.

From a solved :class:`~npkw.bellman.CostTable` this module materializes the
optimal randomized sequential test together with the adversary's least
favorable distribution (LFD) as one tree of :class:`PolicyNode` records over
the observable histories, identical subtrees stored once (a DAG):

* ``p_continue`` — probability the test takes another sample at this node
  (1 strictly inside the continuation region, 0 strictly inside the stopping
  region, and the exact randomization weight at threshold kinks);
* ``decision`` — which hypothesis is accepted when stopping here;
* ``lfd_probs`` — the adversary's conditional PMF for the next symbol,
  read off the sup-convolution split of the node's likelihood z0;
* ``e_enter`` / ``e_continue`` — integer labels: the expected number of
  remaining samples on entering the node, and conditional on continuing.
  Their ratio is exactly ``p_continue``.

The labels obey an equalization law: every child reached with positive LFD
probability carries the same ``e_enter``, equal to the parent's continuation
slope c, and ``e_continue = 1 + c``.  The continuation slope is the right
derivative of the node's sup-convolution slice at its z0 (linearly extended
at the right edge — the reading consistent with the subtree's actual
conditional expectations when a child is consumed to its full domain).
Extraction validates these laws and raises :class:`ExtractionError` on any
inconsistency rather than patching over it.

The public fields and results are ``Fraction``s, but extraction and the
walks over the DAG run in integers.  A node keeps z0 as its reduced pair
and the LFD as integers over one denominator, with ``Fraction`` views.
:func:`~npkw.pwl.split_at` reads a state's merge pool and returns the
allocation of z0 over one denominator: the LFD is the allocation over its
sum, and a child's z0 is its entry reduced by one gcd.  One integer scan
gives both one-sided slopes of the lifted slice, and z0 is compared with
the stopping threshold by cross-multiplying.
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
from typing import Iterable, Iterator, NamedTuple, Optional

from .bellman import (
    CostTable,
    DesignState,
    ExtractionError,
    NominalModel,
    _frac_str,
    _ratio_str,
    child_counts,
)
from .pwl import RationalLike, _fixed_str, _sides, rat, split_at


class Decision(Enum):
    """Terminal decision at a stopping node."""

    H1 = "H1"
    H2 = "H2"
    RANDOMIZED = "randomized"  # likelihoods tie exactly: fair coin


class PolicyNode:
    """The extracted design at one observable history.

    Nodes are hash-consed on ``(state.counts, z0, e_enter)`` — the count
    vector, the adversary mass and the parent's promise, which is the entry
    label — so every history with the same triple shares one object, also in
    display cuts (whose cut depth is a function of the counts).  Mutating a
    node changes it at every history that reaches it.

    z0 is kept as its reduced pair ``z0_num / z0_den`` and the LFD as the
    integers ``lfd_num`` over the positive ``lfd_den``; ``z0`` and
    ``lfd_probs`` are their ``Fraction`` views, built on each read, and
    assigning to a view sets the integers.

    ``decision`` is None while continuing for sure; ``e_continue``,
    ``lfd_probs`` and ``children`` are None at sure-stop nodes.  A node with
    ``p_continue > 0`` but ``children is None`` only occurs in display trees
    cut at a depth limit; evaluation rejects such trees.

    ``sure_stop_state`` records a fact about the *state*, not the extracted
    behaviour: the canonical design stops here for every positive adversary
    mass (the continuation value already matches the stopping cost at zero).
    A node entered with zero mass but a positive promise keeps continuing —
    cost-free, because of that exact tie — so the flag and ``p_continue``
    may disagree.
    """

    __slots__ = ("state", "z0_num", "z0_den", "e_enter", "e_continue",
                 "p_continue", "decision", "lfd_num", "lfd_den", "children",
                 "sure_stop_state", "_eval_cache")

    def __init__(self, state: DesignState, z0_num: int, z0_den: int,
                 e_enter: int, e_continue: Optional[int],
                 p_continue: Fraction, decision: Optional[Decision],
                 lfd_num: Optional[tuple[int, ...]], lfd_den: Optional[int],
                 children: Optional[tuple["PolicyNode", ...]],
                 sure_stop_state: bool = False) -> None:
        self.state = state
        self.z0_num = z0_num
        self.z0_den = z0_den
        self.e_enter = e_enter
        self.e_continue = e_continue
        self.p_continue = p_continue
        self.decision = decision
        self.lfd_num = lfd_num
        self.lfd_den = lfd_den
        self.children = children
        self.sure_stop_state = sure_stop_state
        self._eval_cache = None  # see _eval_base

    @property
    def z0(self) -> Fraction:
        return Fraction(self.z0_num, self.z0_den)

    @z0.setter
    def z0(self, value: RationalLike) -> None:
        v = rat(value)
        self.z0_num, self.z0_den = v.numerator, v.denominator

    @property
    def lfd_probs(self) -> Optional[tuple[Fraction, ...]]:
        if self.lfd_num is None:
            return None
        den = self.lfd_den
        return tuple(Fraction(n, den) for n in self.lfd_num)

    @lfd_probs.setter
    def lfd_probs(self, probs: Optional[tuple[RationalLike, ...]]) -> None:
        if probs is None:
            self.lfd_num = self.lfd_den = None
            return
        probs = tuple(map(rat, probs))
        den = lcm(*(p.denominator for p in probs))
        self.lfd_num = tuple(p.numerator * (den // p.denominator)
                             for p in probs)
        self.lfd_den = den

    @property
    def depth(self) -> int:
        return self.state.depth


def _stop_decision(state: DesignState, model: NominalModel) -> Decision:
    # lam1 * z1 against lam2 * z2, cross-multiplied
    l1, l2, z1, z2 = model.lam1, model.lam2, state.z1, state.z2
    lhs = l1.numerator * z1.numerator * l2.denominator * z2.denominator
    rhs = l2.numerator * z2.numerator * l1.denominator * z1.denominator
    if lhs > rhs:
        return Decision.H1
    if lhs < rhs:
        return Decision.H2
    return Decision.RANDOMIZED


_ZERO = Fraction(0)


def extract_tree(table: CostTable, max_depth: Optional[int] = None) -> PolicyNode:
    """Materialize the optimal policy / LFD tree from a solved cost table.

    ``max_depth`` cuts the tree for display; the returned nodes keep exact
    labels but nodes at the cut carry ``children = None`` even where they
    continue.  Verification and evaluation need the full tree
    (``max_depth=None``).

    The root enters unconditionally; its ``e_enter`` is the right derivative
    of the root cost slice at z0 = 1 — the smallest expected sample size
    consistent with optimality.  Inside the tree each node's label is the
    parent's promise c; a hard :class:`ExtractionError` is raised whenever a
    promise falls outside the child's superdifferential (the equalization
    law would be violated, meaning the table is inconsistent).
    """
    # Hash-consed on (counts, z0, promise): a subtree reads only the table at
    # its counts, its mass and its parent's promise, and its depth, hence the
    # display cut too, is that of its counts (extraction starts at the root).
    # z0 enters the key as its reduced pair: hashing a Fraction costs a
    # modular inverse.
    k = table.model.alphabet_size
    memo: dict[tuple, PolicyNode] = {}
    rows: dict[tuple[int, ...], tuple] = {}
    shared_p: dict[tuple[int, int], Fraction] = {}  # p_continue by labels

    def extract(counts: tuple[int, ...], zn: int, zd: int,
                promised: Optional[int]) -> PolicyNode:
        key = (counts, zn, zd, promised)
        node = memo.get(key)
        if node is None:
            row = rows.get(counts)
            if row is None:
                row = rows[counts] = _row(table, counts, max_depth)
            node = memo[key] = extract_node(row, zn, zd, promised)
        return node

    def extract_node(row: tuple, zn: int, zd: int,
                     promised: Optional[int]) -> PolicyNode:
        state, decision, sure_state, lifted, rho, z0_star, record, perm, \
            kids = row
        if lifted is None:
            return _stop_node(state, zn, zd, decision, promised, True)
        counts = state.counts

        if zn > 0:
            # z0 against the kink, cross-multiplied: > 0 past it, 0 at it
            side = -1 if z0_star is None else \
                zn * z0_star[1] - z0_star[0] * zd
            if side > 0:
                return _stop_node(state, zn, zd, decision, promised,
                                  sure_state)
            # Continuing is optimal (strictly below the kink) or tied (at
            # it).  The equalized continuation slope c may sit anywhere in
            # the superdifferential of the continuation slice d at z0; the
            # right derivative is the canonical smallest choice, and a
            # parent's promise pins the choice instead where one exists.
            # d's slopes are the lifted slice's less one, segment by
            # segment; the right one is linearly extended at the edge.
            _, d_left, d_right = _sides(lifted, zn, zd)
            d_left -= 1
            d_right -= 1
            if side == 0:
                # stopping weight is free at the kink; the promise pins it
                e_enter = 0 if promised is None else promised
                if e_enter == 0:
                    return _stop_node(state, zn, zd, decision, None,
                                      sure_state)
                c = max(d_right, e_enter - 1)
                if c > d_left:
                    raise ExtractionError(
                        f"state {counts}: promise {e_enter} needs "
                        f"continuation slope {e_enter - 1}, outside "
                        f"[{d_right}, {d_left}]"
                    )
            else:
                if promised is None:
                    c = d_right
                else:
                    c = promised - 1
                    if not d_right <= c <= d_left:
                        raise ExtractionError(
                            f"state {counts}: sure-continue promise "
                            f"{promised} needs slope {c}, outside "
                            f"[{d_right}, {d_left}]"
                        )
                e_enter = 1 + c
        else:
            # Zero adversary mass: the least favorable distribution never
            # comes here, so stopping and continuing cost the same (the
            # continuation value ties the stopping cost at z0 = 0 whenever
            # stopping is optimal).  The node keeps the parent's promise
            # alive so that the expected sample size stays equalized along
            # *every* symbol path, not just the positively-weighted ones.
            if promised is None or promised == 0:
                return _stop_node(state, zn, zd, decision, promised,
                                  sure_state)
            e_enter = promised
            c = max(_sides(lifted, 0, 1)[2] - 1, e_enter - 1)

        # c counts the samples after this one, so it is at least 0; every
        # promise is then at least 0, and 0 <= e_enter <= e_continue follows
        if c < 0:
            raise ExtractionError(
                f"state {counts}: continuation slope {c} at z0 = "
                f"{Fraction(zn, zd)} is below 0"
            )
        e_continue = 1 + c
        # the entry label must be a supergradient of the node's own cost
        # slice (unbounded above at the left endpoint of the domain)
        lo, hi, _ = _sides(rho, zn, zd)
        if not (e_enter >= lo if zn == 0 else lo <= e_enter <= hi):
            raise ExtractionError(
                f"state {counts}: e_enter {e_enter} outside the "
                f"superdifferential [{lo}, {hi}] of the cost slice at "
                f"z0 = {Fraction(zn, zd)}"
            )

        labels = (e_enter, e_continue)
        p_continue = shared_p.get(labels)
        if p_continue is None:
            p_continue = shared_p[labels] = Fraction(e_enter, e_continue)

        alloc, den = split_at(record, k, zn, zd)
        if perm is not None:
            alloc = perm(alloc)
        if zn > 0:
            # the allocation sums to z0, so a / z0 is a over that sum
            lfd = tuple(alloc)
            lfd_den = sum(lfd)
        else:
            # limiting allocation direction as z0 -> 0+: the merge's first
            # slope class, shared in proportion to segment widths (uniform
            # when the merge has no segment at all)
            pool = record[1]
            weights = [0] * k
            for slope, op, width in pool:
                if slope != pool[0][0]:
                    break
                weights[op] += width
            lfd = tuple(weights if perm is None else perm(weights))
            lfd_den = sum(lfd)
            if lfd_den == 0:
                lfd, lfd_den = (1,) * k, k

        children: Optional[tuple[PolicyNode, ...]] = None
        if kids is not None:
            # equalization: every child is promised c, weighted or not
            children = tuple(
                extract(kid, a // (g := gcd(a, den)), den // g, c)
                for kid, a in zip(kids, alloc))
        return PolicyNode(state, zn, zd, e_enter, e_continue, p_continue,
                          decision if e_enter != e_continue else None,
                          lfd, lfd_den, children, sure_state)

    return extract((0,) * k, 1, 1, None)


def _row(table: CostTable, counts: tuple[int, ...],
         max_depth: Optional[int]) -> tuple:
    """What extraction reads of one state, looked up once per state:
    ``(state, stop decision, sure_state, lifted, rho, z0_star as a pair,
    merge record, perm, child counts)``, with ``lifted`` None at the
    horizon and the child counts None at a display cut.  A mirror state
    (see :class:`~npkw.bellman.CostTable`) reads its partner's pool, and
    ``perm`` maps the partner's allocation to its own: its allocation to
    symbol x is the partner's to sigma(x)."""
    state = table.states[counts]
    decision = _stop_decision(state, table.model)
    if state.depth == table.model.horizon:
        return state, decision, True, None, None, None, None, None, None
    z0_star = table.z0_star[counts]
    twin = table.twins.get(counts)
    kids = None if max_depth is not None and state.depth >= max_depth else \
        tuple(child_counts(counts, x) for x in range(len(counts)))
    # stopping already matches continuing at zero mass
    return (state, decision, z0_star == 0, table.lifted[counts],
            table.rho[counts],
            None if z0_star is None else (z0_star.numerator,
                                          z0_star.denominator),
            table.pools[counts if twin is None else twin],
            None if twin is None else itemgetter(*table.sigma), kids)


def _stop_node(state: DesignState, zn: int, zd: int, decision: Decision,
               promised: Optional[int], sure_state: bool) -> PolicyNode:
    if promised not in (None, 0):
        raise ExtractionError(
            f"state {state.counts}: parent promises {promised} remaining "
            "samples to a node that stops surely"
        )
    return PolicyNode(state, zn, zd, 0, None, _ZERO, decision, None, None,
                      None, sure_state)


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
    """Each distinct node object once.  Extraction shares every subtree
    with the same (counts, z0, promise), so the materialized structure is a
    DAG; node-local queries should walk it this way."""
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


_DISPLAY_CUT = ("tree was cut at a display depth limit; rebuild it with "
                "max_depth=None for evaluation")


def _levels(root: PolicyNode) -> list[list[PolicyNode]]:
    """Unique nodes level by level below the root (every parent sits one
    level above its children).  Raises ``ValueError`` on a tree cut at a
    display depth: a node that may continue but has no children."""
    levels = []
    level = [root]
    seen = {id(root)}
    while level:
        levels.append(level)
        below = []
        for node in level:
            if node.children is None:
                if node.p_continue:
                    raise ValueError(_DISPLAY_CUT)
                continue
            for child in node.children:
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


def lfd_range(root: PolicyNode, symbol: int = 1) -> tuple[Fraction, Fraction]:
    """Range of the least favorable probability of ``symbol`` over nodes the
    adversary actually randomizes at.

    Nodes with z0 = 0 never occur under the least favorable distribution and
    carry a limiting-direction convention rather than a real conditional
    law; transition probabilities of exactly 0 or 1 mark branches the
    adversary abandons because the next sample surely ends the test there.
    Both are excluded — the range covers the genuine randomized transitions.
    """
    lo: Optional[tuple[int, int]] = None  # as (numerator, denominator)
    hi: Optional[tuple[int, int]] = None
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


def find_node(root: PolicyNode, symbols: tuple[int, ...]) -> PolicyNode:
    """Follow a symbol path from the root; raises KeyError off the tree."""
    node = root
    for x in symbols:
        if node.children is None:
            raise KeyError(f"path {symbols} leaves the materialized tree")
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
    errors of depth n are over 2 * L * m**(n+1), L the lcm of the
    likelihood denominators there (the D**n of ``bellman._state_maker``
    or a divisor of it); one ``Fraction`` per depth is summed.  Returns
    ``(alpha1, alpha2, m, continuation weights, stopping weights)``.

    The result is cached on the root, which assumes the tree is not
    mutated after its first evaluation.
    """
    cached = root._eval_cache
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
            like = lcm(*(z.denominator for state, _, _ in errs.values()
                         for z in (state.z1, state.z2)))
            e1 = e2 = 0
            for state, w1, w2 in errs.values():
                z1, z2 = state.z1, state.z2
                e1 += z1.numerator * (like // z1.denominator) * w1
                e2 += z2.numerator * (like // z2.denominator) * w2
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
            lfd = node.lfd_num
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
            if node.lfd_num[x] == 0:
                continue
            v = eq[id(child)]
            if v is not None and \
                    acc + surv * Fraction(v, dens[len(path) + 1]) == c_root:
                continue  # every positive path below lands exactly right
            stack.append((child, path + (x,), surv, acc))
    return found


class LfdSupportReport(NamedTuple):
    """Support check for the least favorable distribution.

    Wherever the adversary actually plays (z0 > 0 and the node may
    continue), it must put positive mass on every symbol both hypotheses
    can produce.  The one exception: a branch may get zero mass when the
    state it leads to stops surely anyway — the sample taken on entering
    it would have been the last.  Mass placed *outside* the mutual support
    kills one hypothesis's likelihood, so it is only allowed where every
    next state stops surely.  ``offending`` names one symbol path per
    violating node, the first that depth-first search reaches, sorted.
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
    stack: list[tuple[PolicyNode, tuple[int, ...]]] = [(root, ())]
    while stack:
        node, path = stack.pop()
        if id(node) in seen:
            continue  # shared subtree: checked at its first occurrence
        seen.add(id(node))
        if not node.p_continue:
            continue
        if node.children is None:
            raise ValueError(_DISPLAY_CUT)
        if node.z0_num > 0:
            lfd = node.lfd_num  # over the positive lfd_den
            bad = any(
                lfd[x] == 0 and not node.children[x].sure_stop_state
                for x in support
            )
            outside = any(
                lfd[x] > 0 for x in range(len(lfd)) if x not in support
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
                        current node's LFD PMF.

    Determinism: one call seeds one ``random.Random(str(seed))`` (string
    seeding is stable across platforms and keeps ``-7`` apart from ``7``),
    and trials 0, 1, ... take its draws in order: a draw to stop, then one
    for a randomized decision or the next symbol.  A run of n trials is a
    prefix of a longer one; trial t cannot be replayed without trials
    0..t-1.  All comparisons are exact: a 64-bit draw u stands for the
    dyadic u / 2**64, and each node turns its stopping probability and its
    symbol PMF into integer cutoffs (:func:`_cut`) that u is compared with,
    biasing each event by less than 2**-64.  A trial that reaches the cut
    of a display tree raises ``ValueError``, and so do fewer than one trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    k = len(root.state.counts)
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
    elif strategy not in ("alternating", "lfd"):
        raise ValueError(f"unknown strategy {strategy!r}")
    alternating = strategy == "alternating"

    # per node, built on the first visit: the stop cutoff, the decision,
    # the children and the symbol cutoffs (the lfd strategy's own)
    seen: dict[int, tuple] = {}

    def visit(node: PolicyNode) -> tuple:
        p = node.p_continue
        cuts = fixed_cuts
        if strategy == "lfd" and node.children is not None:
            cuts = _symbol_cuts(node.lfd_num, node.lfd_den)
        seen[id(node)] = got = (_cut(p.numerator, p.denominator),
                                node.decision, node.children, cuts)
        return got

    total_tau = 0
    max_tau = 0
    n_h1 = 0
    n_h2 = 0
    bits = random.Random(str(seed)).getrandbits
    for _ in range(trials):
        node = root
        steps = 0
        while True:
            cut, decision, children, cuts = seen.get(id(node)) or visit(node)
            if bits(64) >= cut:
                if decision is Decision.RANDOMIZED:  # H1 when u / 2**64 < 1/2
                    decision = Decision.H1 if bits(64) < _UNIT // 2 else Decision.H2
                if decision is Decision.H1:
                    n_h1 += 1
                else:
                    n_h2 += 1
                break
            if children is None:
                raise ValueError(_DISPLAY_CUT)
            node = children[steps % k if alternating
                            else bisect_right(cuts, bits(64))]
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
# exports
# ---------------------------------------------------------------------------

_STOP_COLORS = {
    Decision.H1: "#b3d1ff",
    Decision.H2: "#ffbdbd",
    Decision.RANDOMIZED: "#e0c7f5",
}


def _dot_attrs(node: PolicyNode) -> tuple[str, tuple[str, ...]]:
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


def tree_to_dot(root: PolicyNode) -> str:
    """Graphviz rendering of the policy tree.

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
    counter = 0

    def emit(node: PolicyNode) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        got = attrs.get(id(node))
        if got is None:
            got = attrs[id(node)] = _dot_attrs(node)
        lines.append(f"  {name} {got[0]}")
        for child, label in zip(node.children or (), got[1]):
            lines.append(f"  {name} -> {emit(child)} {label}")
        return name

    emit(root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_pieces(node: PolicyNode, level: int) -> tuple[str, str, str]:
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


def tree_to_json(root: PolicyNode) -> str:
    """Nested JSON text of the tree; rationals as "num/den" strings.

    The text is exactly what ``json.dumps(..., sort_keys=True, indent=1)``
    prints for one record per virtual node with its children nested.  A
    node's indentation is a function of its depth below ``root``, so each
    distinct node is formatted once and one walk over the virtual tree
    joins the pieces.
    """
    pieces: list[str] = []
    cache: dict[int, tuple[str, str, str]] = {}
    base = root.depth

    def walk(node: PolicyNode) -> None:
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
