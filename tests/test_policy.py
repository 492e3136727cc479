"""Tests for policy extraction, verification, evaluation and simulation.

Hand-derived expectations for the 2-sample reference design
(theta = (0.8, 0.2), lam1 = lam2 = 20):

  The root continues surely into depth 1, where both states stop for any
  positive adversary mass (test_bellman's horizon-2 derivation).  So
  tau == 1 always; stopping at (1,0) decides H2 (risk 20 * 1/5 = 4 beats
  20 * 4/5), at (0,1) H1 symmetrically.  Errors: alpha1 = P1(one failure)
  = 1/5, alpha2 = P2(one success) = 1/5, and the Lagrangian cost
  1 + 20/5 + 20/5 = 9 equals the root value.  The adversary splits evenly:
  the model is symmetric under swapping symbols and hypotheses at once.

At horizon 3 the optimal design turns out to be the fixed-sample majority
vote: continue surely to depth 3, no randomization anywhere, E[tau] = 3,
alpha1 = alpha2 = P(at most one success in 3 | theta=0.8) = 13/125.
"""

import json
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import npkw.policy as policy
from npkw.bellman import (
    DesignState, _merge_step, backward_recursion, bernoulli_model,
    child_counts, make_model,
)
from npkw.policy import (
    Decision,
    ExtractionError,
    evaluate,
    extract_tree,
    find_node,
    iter_nodes,
    iter_unique_nodes,
    lfd_range,
    lfd_tree,
    max_conditional_remaining,
    simulate,
    tree_to_dot,
    tree_to_json,
    verify_equalization,
    verify_lfd_support,
    _cut,
    _symbol_cuts,
)
from npkw.pwl import (
    merge_scaled, pwl, pwl_eval, restrict, slope_classes, slope_right,
    split_at,
)
from oracles import (
    best_response_cost,
    frac_draw,
    frac_evaluate,
    frac_extract_tree,
    frac_lfd_range,
    frac_lfd_support,
    frac_lift,
    frac_of,
    frac_slope_right,
    frac_supconv,
    frac_superdiff,
    frac_verify_equalization,
    simulate_loop,
    tree_dot_text,
    tree_json_text,
)

SETTINGS = {"max_examples": 50, "deadline": None}

FIG_MODEL = dict(theta1="0.8", theta2="0.2", lam1=20, lam2=20)


def small_fig(horizon):
    model = bernoulli_model(horizon=horizon, **FIG_MODEL)
    table = backward_recursion(model)
    return model, table, extract_tree(table)


# ---------------------------------------------------------------------------
# hand-derived small designs
# ---------------------------------------------------------------------------

def test_horizon2_tree_by_hand():
    model, table, root = small_fig(2)
    assert (root.e_enter, root.e_continue, root.p_continue) == (1, 1, 1)
    assert root.decision is None
    assert root.mass == (True, True)
    assert lfd_tree(root).lfd_probs == (Fraction(1, 2), Fraction(1, 2))
    fail, succ = root.children
    assert fail.state.counts == (1, 0) and fail.decision is Decision.H2
    assert succ.state.counts == (0, 1) and succ.decision is Decision.H1
    assert fail.p_continue == 0 and fail.children is None

    rep = evaluate(root, list(model.p1))
    assert rep.expected_sample_size == 1
    assert rep.alpha1 == Fraction(1, 5) and rep.alpha2 == Fraction(1, 5)
    assert rep.stop_time_pmf == ((1, Fraction(1)),)
    assert pwl_eval(table.rho[(0, 0)], 1) == 9


def test_horizon3_is_majority_vote():
    model, table, root = small_fig(3)
    assert (root.e_enter, root.p_continue) == (3, 1)
    # no randomized stopping anywhere: a fixed-sample design
    assert max_conditional_remaining(root) == 0
    for node in iter_unique_nodes(root):
        assert node.p_continue in (0, 1)
    rep = evaluate(root, list(model.p1))
    assert rep.expected_sample_size == 3
    assert rep.alpha1 == Fraction(13, 125) == rep.alpha2
    cert = verify_equalization(root)
    assert cert.passes and cert.n_paths == 8
    assert cert.max_path_expectation == 3


# ---------------------------------------------------------------------------
# the 21-sample reference design
# ---------------------------------------------------------------------------

def test_fig_root_labels(fig_tree):
    assert (fig_tree.e_enter, fig_tree.e_continue) == (3, 3)
    assert fig_tree.p_continue == 1
    assert fig_tree.decision is None
    # symmetry of the model forces an even first split
    assert lfd_tree(fig_tree).lfd_probs == (Fraction(1, 2), Fraction(1, 2))


def test_fig_two_successes_node(fig_tree):
    node = find_node(lfd_tree(fig_tree), (1, 1))
    assert node.state.counts == (0, 2)
    assert (node.e_enter, node.e_continue) == (1, 3)
    assert node.p_continue == Fraction(1, 3)
    succ = node.lfd_probs[1]
    assert succ == Fraction(21257154869375395628550, 154761226576575279611879)
    assert abs(float(succ) - 0.1374) < 5e-4


def test_fig_seven_successes_display_node(fig_display):
    node = find_node(fig_display, (1,) * 7)
    assert node.state.counts == (0, 7)
    assert (node.e_enter, node.e_continue) == (10, 12)
    assert node.p_continue == Fraction(5, 6)
    assert node.children is None  # sits exactly at the display cut


def test_fig_max_conditional_remaining(fig_tree, fig_display):
    # the displayed seven levels top out at 12, at seven successes (and at
    # the mirror state); the full horizon continues below the figure and
    # reaches 13 one level further down
    assert max_conditional_remaining(fig_display) == 12
    attained = {
        n.state.counts for n in iter_unique_nodes(fig_display)
        if n.e_continue == 12 and 0 < n.p_continue < 1
    }
    assert attained == {(0, 7), (7, 0)}
    assert max_conditional_remaining(fig_tree) == 13
    deeper = {
        n.state.counts for n in iter_unique_nodes(fig_tree)
        if n.e_continue == 13 and 0 < n.p_continue < 1
    }
    assert deeper == {(0, 8), (8, 0)}


def test_fig_lfd_ranges(fig_tree, fig_display):
    lo, hi = lfd_range(fig_tree)
    assert (lo, hi) == (Fraction(4, 69), Fraction(65, 69))
    dlo, dhi = lfd_range(fig_display)
    # swapping symbols and hypotheses together mirrors the design, so over
    # any mirror-closed node collection min + max == 1 exactly
    assert dlo + dhi == 1
    assert lo + hi == 1
    assert abs(float(dlo) - 0.120107) < 1e-6
    assert abs(float(dhi) - 0.879893) < 1e-6


def test_lfd_range_rejects_a_symbol_outside_the_alphabet():
    _, _, root = small_fig(6)
    # -1 would index the last symbol and 2 would run off a coin's LFD
    for symbol in (-1, 2):
        for tree in (root, lfd_tree(root)):
            with pytest.raises(ValueError, match=rf"^symbol {symbol} is "
                               r"outside the alphabet 0\.\.1$"):
                lfd_range(tree, symbol)
    assert lfd_range(root, 0)[0] + lfd_range(root, 1)[1] == 1


def test_fig_evaluate_exact(fig_tree):
    rep = evaluate(fig_tree, ["0.8", "0.2"])
    assert rep.expected_sample_size == 3
    a = Fraction(40533122445831161493006811, 413550981452465057373046875)
    assert rep.alpha1 == a and rep.alpha2 == a
    assert rep.stop_time_pmf[0] == (2, Fraction(34, 75))
    assert sum(m for _, m in rep.stop_time_pmf) == 1


def test_fig_probe_independence_exact(fig_tree):
    # identical exact rationals under wildly different probes, degenerate
    # point masses included
    reports = [
        evaluate(fig_tree, probe)
        for probe in (["0.5", "0.5"], [1, 0], [0, 1], ["1/7", "6/7"])
    ]
    assert {r.expected_sample_size for r in reports} == {Fraction(3)}
    assert len({(r.alpha1, r.alpha2) for r in reports}) == 1


def test_fig_cost_identity(fig_table, fig_tree):
    # E[tau] + lam1*alpha1 + lam2*alpha2 telescopes to the root value
    rep = evaluate(fig_tree, ["0.5", "0.5"])
    rho1 = pwl_eval(fig_table.rho[(0, 0)], 1)
    assert rho1 == Fraction(572395568438128326367882613,
                            82710196290493011474609375)
    assert rep.expected_sample_size + 20 * (rep.alpha1 + rep.alpha2) == rho1


def test_fig_equalization_certificate(fig_tree):
    cert = verify_equalization(fig_tree)
    assert cert.passes and bool(cert)
    assert cert.c_root == 3
    assert cert.max_path_expectation == 3
    assert cert.q0_path_expectations_equal
    assert cert.violating_paths == ()
    assert cert.n_paths == 473900
    assert cert.n_q0_positive_paths == 42828


def test_fig_lfd_support(fig_tree, fig_model):
    report = verify_lfd_support(fig_tree, fig_model)
    assert report.passes and bool(report)
    assert report.mutual_support == (0, 1)
    assert report.offending == ()


def test_fig_best_response(fig_table, fig_tree, fig_model):
    # no stop-or-continue deviation against the extracted adversary beats
    # the design's own Lagrangian cost: an exact saddle
    br = best_response_cost(lfd_tree(fig_tree), fig_model.lam1, fig_model.lam2)
    assert br == pwl_eval(fig_table.rho[(0, 0)], 1)


def test_fig_sharing_is_a_dag(fig_tree, fig_display):
    n_virtual = sum(1 for _ in iter_nodes(fig_tree))
    n_unique = sum(1 for _ in iter_unique_nodes(fig_tree))
    assert n_virtual == 947799
    assert n_unique == 411
    # the rule: one node object per distinct subtree
    nodes = list(iter_unique_nodes(fig_tree))
    assert len({(n.state.counts, n.e_enter, n.e_continue, n.mass,
                 n.children) for n in nodes}) == 411
    # with the adversary's mass: one node object per (counts, z0, entry
    # label), over the whole horizon and in the display cut alike
    for root, expected in ((lfd_tree(fig_tree), 2248), (fig_display, 75)):
        nodes = list(iter_unique_nodes(root))
        keys = {(n.state.counts, n.z0, n.e_enter) for n in nodes}
        assert len(nodes) == len(keys) == expected
    # node-local queries agree between the two walks
    assert max(n.e_continue or 0 for n in iter_nodes(fig_tree)) == \
        max(n.e_continue or 0 for n in iter_unique_nodes(fig_tree))


def test_fig_long_horizon_certified():
    # the paper's model at horizon 27: over 27 million symbol paths, cheap
    # to extract and certify as a DAG
    model = bernoulli_model(horizon=27, **FIG_MODEL)
    table = backward_recursion(model)
    root = extract_tree(table)
    cert = verify_equalization(root)
    assert cert.passes and cert.c_root == 3
    assert cert.n_paths == 27_025_268
    assert verify_lfd_support(root, model).passes
    rep = evaluate(root, list(model.p1))
    assert rep.expected_sample_size == 3
    assert rep.expected_sample_size + 20 * rep.alpha1 + 20 * rep.alpha2 == \
        pwl_eval(table.rho[(0, 0)], 1)


def test_h45_design_continues_at_depth_44_with_positive_mass():
    """The paper's design is nontruncated: at horizon 45 the extracted rule
    still continues at depth 44, the last depth before the horizon, at a
    history the adversary reaches with positive mass, and both
    certificates pass."""
    model = bernoulli_model(horizon=45, **FIG_MODEL)
    root = extract_tree(backward_recursion(model))
    # the histories of positive mass: follow the weighted branches
    deepest = 0
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.p_continue and any(node.mass):
            deepest = max(deepest, node.depth)
            for child, weighted in zip(node.children, node.mass):
                if weighted and id(child) not in seen:
                    seen.add(id(child))
                    stack.append(child)
    assert deepest == 44
    cert = verify_equalization(root)
    assert cert.passes and cert.c_root == 3
    assert verify_lfd_support(root, model).passes


def test_h61_rule_is_pinned():
    """The longest horizon a test extracts: the rule of the paper's model
    at horizon 61 keeps its node count and equalization certificate."""
    root = extract_tree(backward_recursion(
        bernoulli_model(horizon=61, **FIG_MODEL)))
    assert sum(1 for _ in iter_unique_nodes(root)) == 4_848
    cert = verify_equalization(root)
    assert cert.passes and cert.c_root == 3
    assert cert.n_paths == 317_917_241_774_660_096


@pytest.mark.parametrize("model, rule_nodes, mass_nodes", [
    (bernoulli_model("0.8", "0.2", 20, 20, 15), 200, 501),
    (make_model(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], 20, 20, 10),
     457, 892),
    (bernoulli_model("0.7", "0.4", 20, 30, 15), 211, 1198),
], ids=["ref15", "tern10", "asymmetric"])
def test_rule_node_counts(model, rule_nodes, mass_nodes):
    """The rule has one node per distinct subtree, and its histories one
    node per (counts, z0, promise), as the per-mass extraction had."""
    root = extract_tree(backward_recursion(model))
    assert sum(1 for _ in iter_unique_nodes(root)) == rule_nodes
    assert sum(1 for _ in iter_unique_nodes(lfd_tree(root))) == mass_nodes


# ---------------------------------------------------------------------------
# verification must fail on broken trees
# ---------------------------------------------------------------------------

def test_equalization_rejects_mutation():
    _, _, root = small_fig(8)
    victim = find_node(root, (1, 1))
    original = victim.p_continue
    victim.p_continue = Fraction(1, 2)
    cert = verify_equalization(root)
    assert not cert.passes
    assert not cert.q0_path_expectations_equal
    assert cert.violating_paths  # concrete witnesses come back
    path, value = cert.violating_paths[0]
    assert path[:2] == (1, 1) and value != cert.c_root
    victim.p_continue = original
    assert verify_equalization(root).passes


def test_equalization_rejects_mutation_of_shared_node():
    _, _, root = small_fig(8)
    # histories 01 and 10 reach counts (1, 1) with the same mass and promise
    victim = find_node(root, (0, 1))
    assert victim is find_node(root, (1, 0)) and any(victim.mass)
    original = victim.p_continue
    victim.p_continue = Fraction(1, 2)
    cert = verify_equalization(root)
    assert not cert.passes
    # the broken node is reported through both histories that reach it
    assert {path[:2] for path, _ in cert.violating_paths} == {(0, 1), (1, 0)}
    victim.p_continue = original
    assert verify_equalization(root).passes


def test_support_rejects_starved_branch():
    model, _, root = small_fig(8)
    victim = find_node(root, (1,))
    assert victim.mass == (True, True)
    victim.mass = (False, True)
    report = verify_lfd_support(root, model)
    assert not report.passes
    assert (1,) in report.offending


def test_extraction_reads_the_oracles_continuation_slopes():
    """At every internal state, the continuation slopes and the class
    that extraction reads off the slope-class table equal those of the
    oracle's lift of its own sup-convolution of the children: at zero
    mass, at each kink of the cost slice below the threshold, between two
    of them and at the threshold, where there is one.  The class is the
    lift's segment z0 lies strictly inside, below the threshold and
    short of z0 = 1, and None elsewhere."""
    thresholds = set()
    for model in (bernoulli_model("0.8", "0.2", 20, 20, 15),
                  make_model(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"],
                             20, 20, 10),
                  bernoulli_model("0.7", "0.4", 20, 30, 15),
                  # (0, 1) and (1, 0) cross their stopping risks at
                  # z0 = 1, where their merges change slope
                  bernoulli_model("1/3", "2/3", 27, 27, 3)):
        table = backward_recursion(model)
        k = model.alphabet_size
        for counts, z0_star in table.z0_star.items():
            thresholds.add(z0_star)
            kids = [frac_of(table.rho[child_counts(counts, x)])
                    for x in range(k)]
            lifted = frac_lift(frac_supconv(kids, 1)[0])
            rho = table.rho[counts]
            classes = slope_classes(
                table.pools[table.twins.get(counts, counts)], k)
            top = Fraction(1) if z0_star is None else z0_star
            points = sorted({Fraction(0), top, *(
                t for t in accumulate(w for _, w in rho.segments) if t < top)})
            points += [(a + b) / 2 for a, b in zip(points, points[1:])]
            kinks = set(accumulate(w for _, w in lifted.segments))
            scale, ends = classes[:2]
            for z0 in points:
                side = 0 if z0 and z0 == z0_star else -1
                d_left, d_right, seg = policy._slopes(
                    classes, z0.numerator, z0.denominator, side)
                assert (d_left, d_right) == (
                    frac_superdiff(lifted, z0).hi - 1,
                    frac_slope_right(lifted, z0) - 1), (counts, z0)
                # the lift's kinks include its domain end, 1
                inside = z0 and z0 != z0_star and z0 not in kinks
                assert (seg is not None) == bool(inside), (counts, z0)
                if inside:
                    start = Fraction(0)
                    for _, width in lifted.segments:
                        if start + width > z0:
                            break
                        start += width
                    assert (Fraction(ends[seg], scale),
                            min(Fraction(ends[seg + 1], scale), 1)) == (
                        start, start + width), (counts, z0)
    assert {None, Fraction(0), Fraction(1)} <= thresholds


def test_extraction_error_on_inconsistent_table():
    model = bernoulli_model(horizon=3, **FIG_MODEL)
    table = backward_recursion(model)
    # flatten one cost slice and solve the root again from it: the root's
    # promise to that child follows the edited slice, but the child reads
    # its continuation slopes off its own merge, which still rises at
    # slope 1, so the promise can no longer be honored, which extraction
    # must refuse to paper over
    _edit(table, (1, 0), pwl(4, [(1, 1)]))
    with pytest.raises(ExtractionError, match=r"^state \(1, 0\): "
                       r"sure-continue promise 1 needs slope 0, outside "
                       r"\[1, 1\]$"):
        extract_tree(table)


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------

def test_display_cut_rejected_for_evaluation(fig_display, fig_model):
    for run in (lambda root: evaluate(root, ["0.5", "0.5"]),
                verify_equalization,
                lambda root: verify_lfd_support(root, fig_model),
                lambda root: simulate(root, 10, 1, "alternating")):
        with pytest.raises(ValueError, match="display depth"):
            run(fig_display)


def test_bad_probe_rejected(fig_tree):
    with pytest.raises(ValueError):
        evaluate(fig_tree, ["0.5", "0.6"])
    with pytest.raises(ValueError):
        evaluate(fig_tree, ["0.5", "0.25", "0.25"])


def test_find_node_off_tree(fig_tree, fig_display):
    with pytest.raises(KeyError, match=r"at the display cut at depth 7"):
        find_node(fig_display, (1,) * 8)
    # (1, 0, 0) stops surely, in the rule and at its histories alike
    for root in (fig_tree, fig_display):
        assert find_node(root, (1, 0, 0)).p_continue == 0
        with pytest.raises(KeyError, match=r"path \(1, 0, 0, 1\) leaves the "
                           r"materialized tree at a sure stop at depth 3"):
            find_node(root, (1, 0, 0, 1))


@pytest.mark.parametrize("symbol", [-1, 2])
def test_find_node_rejects_symbols_outside_the_alphabet(fig_tree, fig_display,
                                                        symbol):
    # a negative index once wrapped to the last child, and 2 raised an
    # IndexError
    for root in (fig_tree, fig_display):
        with pytest.raises(KeyError, match=rf"path \(1, {symbol}\): symbol "
                           rf"{symbol} is outside the alphabet 0..1"):
            find_node(root, (1, symbol))


# ---------------------------------------------------------------------------
# alphabet beyond coin flips
# ---------------------------------------------------------------------------

def test_trinomial_design_consistent():
    model = make_model(
        ["1/2", "1/4", "1/4"], ["1/6", "1/3", "1/2"],
        lam1=10, lam2=14, horizon=4,
    )
    table = backward_recursion(model)
    root = extract_tree(table)
    assert verify_equalization(root).passes
    assert verify_lfd_support(root, model).passes
    reports = [
        evaluate(root, p)
        for p in (list(model.p1), list(model.p2), [1, 0, 0], ["1/3"] * 3)
    ]
    assert len({r.expected_sample_size for r in reports}) == 1
    rep = reports[0]
    rho1 = pwl_eval(table.rho[(0, 0, 0)], 1)
    assert rep.expected_sample_size + 10 * rep.alpha1 + 14 * rep.alpha2 == rho1
    assert best_response_cost(lfd_tree(root), model.lam1, model.lam2) == rho1


# ---------------------------------------------------------------------------
# randomized-model properties
# ---------------------------------------------------------------------------

thetas = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10),
                      max_denominator=12)
lams = st.integers(min_value=1, max_value=40)


@settings(**SETTINGS)
@given(thetas, thetas, lams, lams, st.integers(min_value=1, max_value=4))
@example(t1=Fraction(2, 3), t2=Fraction(1, 10), lam1=3, lam2=10, horizon=1)
def test_extraction_laws_random_models(t1, t2, lam1, lam2, horizon):
    assume(t1 != t2)
    model = bernoulli_model(t1, t2, lam1=lam1, lam2=lam2, horizon=horizon)
    table = backward_recursion(model)
    root = extract_tree(table)

    # Root entry label = right slope of the root cost slice at full mass,
    # except when stopping is (weakly) optimal there: the canonical
    # extraction prefers stopping, and an exact tie at z0 = 1 leaves a
    # zero-width stop piece that the minimum envelope cannot retain.
    zs = table.z0_star[(0, 0)]
    if zs is not None and zs <= 1:
        assert root.e_enter == 0
    else:
        assert root.e_enter == slope_right(table.rho[(0, 0)], 1)
    for node in iter_unique_nodes(lfd_tree(root)):
        if node.p_continue == 0:
            lhs = model.lam1 * node.state.z1
            rhs = model.lam2 * node.state.z2
            want = (Decision.H1 if lhs > rhs
                    else Decision.H2 if lhs < rhs else Decision.RANDOMIZED)
            assert node.decision is want
        else:
            assert sum(node.lfd_probs) == 1
            assert all(p >= 0 for p in node.lfd_probs)
            # every child is promised the continuation budget
            assert all(
                ch.e_enter == node.e_continue - 1 for ch in node.children
            )


@settings(**SETTINGS)
@given(thetas, thetas, lams, lams, st.integers(min_value=1, max_value=4))
def test_saddle_random_models(t1, t2, lam1, lam2, horizon):
    assume(t1 != t2)
    model = bernoulli_model(t1, t2, lam1=lam1, lam2=lam2, horizon=horizon)
    table = backward_recursion(model)
    root = extract_tree(table)
    rho1 = pwl_eval(table.rho[(0, 0)], 1)

    cert = verify_equalization(root)
    assert cert.passes
    assert verify_lfd_support(root, model).passes

    rep1 = evaluate(root, list(model.p1))
    rep2 = evaluate(root, ["1/2", "1/2"])
    assert rep1.expected_sample_size == rep2.expected_sample_size == cert.c_root
    assert (rep1.alpha1, rep1.alpha2) == (rep2.alpha1, rep2.alpha2)
    cost = rep1.expected_sample_size \
        + model.lam1 * rep1.alpha1 + model.lam2 * rep1.alpha2
    assert cost == rho1
    assert best_response_cost(lfd_tree(root), model.lam1, model.lam2) == rho1


# ---------------------------------------------------------------------------
# merge pools: read where extraction splits, mirrors read through sigma
# ---------------------------------------------------------------------------

def test_extraction_reads_the_pools_of_the_states_it_splits(monkeypatch):
    read = []
    split = policy.split_at
    monkeypatch.setattr(policy, "split_at",
                        lambda classes, *args: read.append(classes)
                        or split(classes, *args))
    table = backward_recursion(bernoulli_model("0.9", "0.1", 3, 3, 40))
    # one merge record per mirror pair of the 820 internal states
    assert len(table.pools) == 420
    root = extract_tree(table)
    # the design stops after one sample: extraction visits the root and the
    # mirror pair (1, 0), (0, 1), and splits the root's mass only, reading
    # the slope classes of the record the solve keeps, which the root keeps
    assert {node.state.counts for node in iter_unique_nodes(root)} == \
        {(0, 0), (1, 0), (0, 1)}
    assert len(read) == 1 and read[0] is root.merge[0]
    assert read[0] == slope_classes(table.pools[(0, 0)], 2)


pmf_weights = st.lists(st.integers(min_value=0, max_value=6), min_size=3,
                       max_size=3)


def _own_pool(table, counts):
    """The merge record of a state from its own children's slices, as the
    solve would keep it had it merged the state itself."""
    k = table.model.alphabet_size
    fs = [table.rho[child_counts(counts, x)] for x in range(k)]
    scale = lcm(*(f.scale for f in fs))
    _, _, pool = merge_scaled(fs, [scale // f.scale for f in fs], scale,
                              scale)
    return scale, pool


def _alloc(record, k, z0):
    nums, den = split_at(slope_classes(record, k), z0.numerator,
                         z0.denominator)
    assert den > 0 and sum(nums) * z0.denominator == den * z0.numerator
    return tuple(Fraction(n, den) for n in nums)


def _own_pool_lfd(table, node):
    """The node's LFD read from the pool of its own state's merge, with no
    detour through a mirror partner."""
    k = len(node.state.counts)
    scale, pool = _own_pool(table, node.state.counts)
    z0 = node.z0
    if z0 > 0:
        return tuple(a / z0 for a in _alloc((scale, pool), k, z0))
    weights = [0] * k
    for slope, op, width in pool:
        if slope != pool[0][0]:
            break
        weights[op] += width
    total = sum(weights)
    if total == 0:
        return tuple(Fraction(1, k) for _ in weights)
    return tuple(Fraction(w, total) for w in weights)


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    w1=pmf_weights,
    w2=pmf_weights,
    mirror=st.booleans(),
    lam1=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    lam2=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    horizon=st.integers(min_value=1, max_value=5),
    z0=st.fractions(min_value=0, max_value=1, max_denominator=40),
)
@example(k=3, w1=[1, 2, 0], w2=[0, 0, 0], mirror=True, lam1=Fraction(20),
         lam2=Fraction(1), horizon=5, z0=Fraction(1, 3))
def test_allocation_read_through_sigma_equals_the_mirrors_own(
        k, w1, w2, mirror, lam1, lam2, horizon, z0):
    w1, w2 = w1[:k], w2[:k]
    assume(sum(w1) > 0)
    p1 = [Fraction(w, sum(w1)) for w in w1]
    if mirror:  # p2 = p1 reversed, with equal weights: sigma reverses
        p2, lam2 = p1[::-1], lam1
    else:
        assume(sum(w2) > 0)
        p2 = [Fraction(w, sum(w2)) for w in w2]
    assume(p1 != p2)
    table = backward_recursion(make_model(p1, p2, lam1, lam2, horizon))
    assert table.sigma is not None or not mirror
    for counts, record in table.pools.items():
        assert record == _own_pool(table, counts)
    for counts, twin in table.twins.items():
        if counts in table.z0_star:  # an internal state
            own = _alloc(_own_pool(table, counts), k, z0)
            read = _alloc(table.pools[twin], k, z0)
            assert own == tuple(read[y] for y in table.sigma)
    for node in iter_unique_nodes(lfd_tree(extract_tree(table))):
        if node.lfd_probs is not None:
            assert node.lfd_probs == _own_pool_lfd(table, node)


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    w1=pmf_weights,
    w2=pmf_weights,
    mirror=st.booleans(),
    lam1=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    lam2=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    horizon=st.integers(min_value=1, max_value=6),
)
@example(k=3, w1=[1, 2, 0], w2=[0, 0, 0], mirror=True, lam1=Fraction(20),
         lam2=Fraction(1), horizon=5)
def test_cost_slices_are_the_lifted_slope_classes_capped_at_g(
        k, w1, w2, mirror, lam1, lam2, horizon):
    """What extraction reads of a merged state, its slope-class table and
    threshold, gives its cost slice: below z0* (on all of [0, 1] where
    there is none) the slice's segments are the classes, cut at z0* or 1,
    with every slope one higher, and from z0* on it is flat at g."""
    w1, w2 = w1[:k], w2[:k]
    assume(sum(w1) > 0)
    p1 = [Fraction(w, sum(w1)) for w in w1]
    if mirror:  # p2 = p1 reversed, with equal weights: sigma reverses
        p2, lam2 = p1[::-1], lam1
    else:
        assume(sum(w2) > 0)
        p2 = [Fraction(w, sum(w2)) for w in w2]
    assume(p1 != p2)
    table = backward_recursion(make_model(p1, p2, lam1, lam2, horizon))
    for counts, z0_star in table.z0_star.items():
        scale, ends, slopes, _ = slope_classes(
            table.pools[table.twins.get(counts, counts)], k)
        top = Fraction(1) if z0_star is None else z0_star
        want = []
        for slope, start, end in zip(slopes, ends, ends[1:]):
            start, end = Fraction(start, scale), min(Fraction(end, scale), top)
            if start < end:
                want.append((slope + 1, end - start))
        if top < 1:
            want.append((0, 1 - top))
        rho = table.rho[counts]
        assert (rho.segments, rho.domain_upper) == (tuple(want), 1), counts
        if z0_star is not None:
            assert pwl_eval(rho, z0_star) == table.states[counts].g, counts


# ---------------------------------------------------------------------------
# integer extraction against the Fraction oracle
# ---------------------------------------------------------------------------

def _rule_classes(want) -> dict[int, int]:
    """The oracle's z0-DAG quotiented by the rule key: each node's class,
    numbered by its (counts, labels, stop probability, decision, branches
    the adversary weights with positive mass, the classes of its
    children)."""
    keys: dict[tuple, int] = {}
    classes: dict[int, int] = {}

    def visit(node) -> int:
        got = classes.get(id(node))
        if got is None:
            kids = node.children
            mass = None if kids is None else tuple(
                node.z0 > 0 and q > 0 for q in node.lfd_probs)
            key = (node.state.counts, node.e_enter, node.e_continue,
                   node.p_continue, node.decision, mass,
                   None if kids is None else tuple(map(visit, kids)))
            got = classes[id(node)] = keys.setdefault(key, len(keys))
        return got

    visit(want)
    return classes


def _assert_same_dag(root, want):
    """The rule DAG from ``root`` equals the oracle's z0-DAG ``want``
    quotiented by the rule key: walked together, each rule node has the
    fields of every oracle node it meets, and rule nodes and classes
    correspond one to one."""
    classes = _rule_classes(want)
    pairs: dict[int, int] = {}
    stack = [(root, want)]
    while stack:
        node, oracle = stack.pop()
        cls = classes[id(oracle)]
        if id(node) in pairs:
            assert pairs[id(node)] == cls
            continue
        pairs[id(node)] = cls
        mass = None if oracle.children is None else tuple(
            oracle.z0 > 0 and q > 0 for q in oracle.lfd_probs)
        assert (node.state.counts, node.e_enter, node.e_continue,
                node.p_continue, node.decision, node.mass,
                node.sure_stop_state) == (
            oracle.state.counts, oracle.e_enter, oracle.e_continue,
            oracle.p_continue, oracle.decision, mass,
            oracle.sure_stop_state)
        assert (node.children is None) == (oracle.children is None)
        stack.extend(zip(node.children or (), oracle.children or ()))
    assert len(set(pairs.values())) == len(pairs) == len(set(classes.values()))


def _assert_same_paths(root, want):
    """Node by node, the fields of the PathNode tree ``root`` equal those
    of the oracle's ``want``, and one node object of each corresponds to
    one of the other (the same sharing)."""
    pairs: dict[int, int] = {}
    stack = [(root, want)]
    while stack:
        node, oracle = stack.pop()
        if id(node) in pairs:
            assert pairs[id(node)] == id(oracle)
            continue
        pairs[id(node)] = id(oracle)
        assert (node.state.counts, node.z0, node.e_enter, node.e_continue,
                node.p_continue, node.decision, node.lfd_probs,
                node.sure_stop_state) == (
            oracle.state.counts, oracle.z0, oracle.e_enter,
            oracle.e_continue, oracle.p_continue, oracle.decision,
            oracle.lfd_probs, oracle.sure_stop_state)
        assert (node.children is None) == (oracle.children is None)
        stack.extend(zip(node.children or (), oracle.children or ()))
    assert len(set(pairs.values())) == len(pairs)


_KEEP = object()


def _edit(table, counts, f, z0_star=_KEEP):
    """Give the state ``counts`` and its mirror the cost slice ``f`` (and
    the threshold ``z0_star``), then solve every shallower state again
    from the edited slices, as the recursion does."""
    k = table.model.alphabet_size
    edited = {counts}
    if table.sigma is not None:
        edited.add(tuple(counts[y] for y in table.sigma))
    for c in edited:
        table.rho[c] = f
        if z0_star is not _KEEP:
            table.z0_star[c] = z0_star
    for c in sorted(table.states, key=lambda c: (-sum(c), c)):
        if sum(c) >= sum(counts):
            continue
        twin = table.twins.get(c)
        if twin is not None:  # the mirror that comes first is solved
            table.rho[c] = table.rho[twin]
            table.z0_star[c] = table.z0_star[twin]
            continue
        fs = [table.rho[child_counts(c, x)] for x in range(k)]
        scale = lcm(*(f.scale for f in fs))
        st_ = table.states[c]
        table.z0_star[c], table.rho[c], pool = _merge_step(
            fs, [scale // f.scale for f in fs], scale, scale, st_.g_num,
            st_.g_den)
        table.pools[c] = scale, pool


@st.composite
def _tails(draw, f, z):
    """``f`` on [0, z] continued by a drawn concave tail of up to two
    segments on [z, 1]."""
    head = restrict(f, z).segments
    hi = draw(st.integers(min_value=0,
                          max_value=head[-1][0] if head else 12))
    lo = draw(st.integers(min_value=0, max_value=hi))
    cut = z + (1 - z) * draw(st.fractions(min_value=0, max_value=1,
                                          max_denominator=7))
    return pwl(f.value_at_zero, [*head, (hi, cut - z), (lo, 1 - cut)])


def _outcome(extract, table, cut):
    try:
        return extract(table, cut), None
    except ExtractionError as exc:
        return None, str(exc)


@st.composite
def _tampered_slices(draw):
    """A slice on [0, 1] of one or two segments."""
    value = draw(st.fractions(min_value=0, max_value=40, max_denominator=7))
    hi = draw(st.integers(min_value=0, max_value=12))
    lo = draw(st.integers(min_value=0, max_value=hi))
    kink = draw(st.fractions(min_value=0, max_value=1, max_denominator=11))
    return pwl(value, [(hi, kink), (lo, 1 - kink)])


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    w1=pmf_weights,
    w2=pmf_weights,
    mirror=st.booleans(),
    lam1=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    lam2=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    horizon=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@example(k=3, w1=[1, 2, 0], w2=[0, 0, 0], mirror=True, lam1=Fraction(20),
         lam2=Fraction(1), horizon=5, data=None)
@example(k=2, w1=[4, 1, 0], w2=[0, 0, 0], mirror=True, lam1=Fraction(20),
         lam2=Fraction(20), horizon=6, data=None)
def test_integer_extraction_matches_the_fraction_oracle(
        k, w1, w2, mirror, lam1, lam2, horizon, data):
    """Full trees and display cuts equal the Fraction extraction node by
    node, sharing included, and a table edited at one state raises the
    oracle's ``ExtractionError`` message or yields the oracle's tree."""
    w1, w2 = w1[:k], w2[:k]
    assume(sum(w1) > 0)
    p1 = [Fraction(w, sum(w1)) for w in w1]
    if mirror:  # p2 = p1 reversed, with equal weights: sigma reverses
        p2, lam2 = p1[::-1], lam1
    else:
        assume(sum(w2) > 0)
        p2 = [Fraction(w, sum(w2)) for w in w2]
    assume(p1 != p2)
    table = backward_recursion(make_model(p1, p2, lam1, lam2, horizon))
    cut = horizon - 1 if data is None else \
        data.draw(st.integers(min_value=1, max_value=horizon))
    root, want = extract_tree(table), frac_extract_tree(table)
    _assert_same_dag(root, want)
    _assert_same_paths(lfd_tree(root), want)
    _assert_same_paths(extract_tree(table, cut), frac_extract_tree(table, cut))
    if data is None:
        return

    # an edited table, with every shallower state solved again: the cost
    # slice of a state where a node continues, or of one with a threshold
    # below 1, cut at that node's z0 or at the threshold and continued by
    # a drawn tail, with the threshold there; an internal state's
    # threshold moved down; or a horizon state's cost slice.  Each is read
    # alike by the package, which takes the continuation slopes off rho
    # below the threshold and off the pool, and by the oracle, which takes
    # them off its own merge of the children.
    what = data.draw(st.sampled_from(["kink", "tail", "z0_star", "horizon"]))
    if what == "kink":
        node = data.draw(st.sampled_from([
            node for node in iter_unique_nodes(lfd_tree(extract_tree(table)))
            if node.p_continue] or [None]))
        assume(node is not None)
        counts, z = node.state.counts, node.z0
        _edit(table, counts, data.draw(_tails(table.rho[counts], z)), z)
    elif what == "tail":
        counts = data.draw(st.sampled_from(sorted(
            c for c, z in table.z0_star.items() if z is not None and z < 1)
            or [None]))
        assume(counts is not None)
        z = table.z0_star[counts]
        _edit(table, counts, data.draw(_tails(table.rho[counts], z)), z)
    elif what == "z0_star":
        counts = data.draw(st.sampled_from(sorted(table.z0_star)))
        z = table.z0_star[counts]
        _edit(table, counts, table.rho[counts], (1 if z is None else z)
              * data.draw(st.fractions(min_value=0, max_value=1,
                                       max_denominator=13)))
    else:
        counts = data.draw(st.sampled_from(
            sorted(c for c in table.states if sum(c) == horizon)))
        _edit(table, counts, data.draw(_tampered_slices()))
    got, error = _outcome(extract_tree, table, None)
    want, want_error = _outcome(frac_extract_tree, table, None)
    assert error == want_error
    if error is None:
        _assert_same_dag(got, want)
        _assert_same_paths(lfd_tree(got), want)
    # the display cut reads the table only down to the cut
    got, error = _outcome(extract_tree, table, cut)
    want, want_error = _outcome(frac_extract_tree, table, cut)
    assert error == want_error
    if error is None:
        _assert_same_paths(got, want)


@pytest.mark.parametrize("horizon, counts, field, value, message, oracle", [
    (3, (1, 0), "rho", pwl(1, [(0, 1)]), "state (1, 0): sure-continue "
     "promise 0 needs slope -1, outside [1, 1]", "state (1, 0): "
     "sure-continue promise 0 needs slope -1, outside [1, 1]"),
    (5, (2, 0), "rho", pwl(1, [(0, 1)]), "state (2, 0): e_enter 1 outside "
     "the superdifferential [3, 3] of the cost slice at z0 = 0", None),
    (3, (1, 1), "z0_star", Fraction(1, 4), "state (1, 1): parent promises 1 "
     "remaining samples to a node that stops surely", "state (1, 1): parent "
     "promises 1 remaining samples to a node that stops surely"),
    # a continuation slope of -1 once ended in p_continue = 0/0, a
    # ZeroDivisionError
    (3, (0, 0), "pools", (1, [(-1, 0, 1), (-1, 1, 1)]), "state (0, 0): "
     "continuation slope -1 at z0 = 1 is below 0", None),
], ids=["sure-continue", "superdifferential", "sure-stop", "flat-lifted"])
def test_extraction_errors_match_the_fraction_oracle(horizon, counts, field,
                                                     value, message, oracle):
    """One edit per message that extraction reads: a cost slice flattened,
    with every shallower state solved again, so that a parent's promise
    follows the edited slice while the state reads its own merge, of
    slope 1 at the sure continue and of first slope 2 at the zero-mass
    node; a threshold moved below the mass 1/2 of a node that continues
    there; and a merge record whose lift is flat.  The oracle reads the
    threshold and the re-solved parents as the package does, and its
    own merges in place of the records, where it finds no error (None):
    it checks a zero-mass node's promise against the edited slice."""
    table = backward_recursion(bernoulli_model(horizon=horizon, **FIG_MODEL))
    if field == "rho":
        _edit(table, counts, value)
    else:
        getattr(table, field)[counts] = value
    assert _outcome(extract_tree, table, None)[1] == message
    assert _outcome(frac_extract_tree, table, None)[1] == oracle


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    w1=pmf_weights,
    w2=pmf_weights,
    mirror=st.booleans(),
    lam1=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    lam2=st.fractions(min_value=Fraction(1, 5), max_value=40, max_denominator=9),
    horizon=st.integers(min_value=1, max_value=6),
    cut=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(k=3, w1=[1, 2, 0], w2=[0, 0, 0], mirror=True, lam1=Fraction(20),
         lam2=Fraction(1), horizon=5, cut=4, seed=1)
def test_rule_dag_reports_equal_the_oracle_trees(
        k, w1, w2, mirror, lam1, lam2, horizon, cut, seed):
    """Everything read off the rule DAG equals what the oracles read off
    the Fraction extraction's z0-DAG: evaluation, both certificates,
    simulation under every strategy, the exports of a display cut and of
    the whole tree and the LFD's range."""
    w1, w2 = w1[:k], w2[:k]
    assume(sum(w1) > 0)
    p1 = [Fraction(w, sum(w1)) for w in w1]
    if mirror:  # p2 = p1 reversed, with equal weights: sigma reverses
        p2, lam2 = p1[::-1], lam1
    else:
        assume(sum(w2) > 0)
        p2 = [Fraction(w, sum(w2)) for w in w2]
    assume(p1 != p2)
    model = make_model(p1, p2, lam1, lam2, horizon)
    table = backward_recursion(model)
    root, want = extract_tree(table), frac_extract_tree(table)
    for pmf in (p1, p2, [Fraction(1, k)] * k):
        assert evaluate(root, pmf) == frac_evaluate(want, pmf)
    assert verify_equalization(root) == frac_verify_equalization(want)
    report = verify_lfd_support(root, model)
    passes, support, bad = frac_lfd_support(want, model)
    assert (report.passes, report.mutual_support) == (passes, support)
    assert set(report.offending) <= bad
    for strategy in ("fixed", "lfd", "alternating"):
        pmf = p2 if strategy == "fixed" else None
        assert simulate(root, 100, seed, strategy, pmf) == \
            simulate_loop(want, 100, seed, strategy, pmf)
    cut = min(cut, horizon)
    for shown, oracle in ((extract_tree(table, cut),
                           frac_extract_tree(table, cut)),
                          (lfd_tree(root), want)):
        assert tree_to_dot(shown) == tree_dot_text(oracle)
        assert tree_to_json(shown) == tree_json_text(oracle)
    try:
        want_range = frac_lfd_range(want)
    except ValueError:
        with pytest.raises(ValueError):
            lfd_range(root)
    else:
        assert lfd_range(root) == want_range


def test_a_span_is_cut_where_a_child_span_ends():
    """A node's span is cut to the pullback of each child's span.  Here a
    child's threshold is moved between the masses that two histories of
    one parent span hand it, and the first inconsistency extraction meets
    is the Fraction extraction's; reusing the parent's node across the
    moved threshold would meet another one first."""
    table = backward_recursion(make_model(
        ["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], 20, 20, 8))
    table.z0_star[(2, 2, 1)] = Fraction(10947253, 5180620800)
    message = ("state (2, 2, 1): parent promises 2 remaining samples to a "
               "node that stops surely")
    for extract in (extract_tree, frac_extract_tree):
        with pytest.raises(ExtractionError) as got:
            extract(table)
        assert str(got.value) == message


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_deterministic_and_calibrated():
    model, _, root = small_fig(8)
    rep = simulate(root, trials=300, seed=11, strategy="fixed",
                   pmf=list(model.p2))
    again = simulate(root, trials=300, seed=11, strategy="fixed",
                     pmf=list(model.p2))
    assert rep == again
    assert rep.mean_sample_size == Fraction(226, 75)
    assert rep.freq_h1 + rep.freq_h2 == 1
    # under data from P2 the H2 decision should dominate (alpha2 ~ 0.1)
    assert rep.freq_h2 > Fraction(3, 4)
    assert rep.max_sample_size <= 8

    other = simulate(root, trials=300, seed=12, strategy="fixed",
                     pmf=list(model.p2))
    assert other.mean_sample_size != rep.mean_sample_size


def test_simulate_strategies():
    model, _, root = small_fig(8)
    lfd = simulate(root, trials=120, seed=5, strategy="lfd")
    assert lfd.mean_sample_size == 3
    alt = simulate(root, trials=120, seed=5, strategy="alternating")
    assert alt.mean_sample_size == 3
    with pytest.raises(ValueError):
        simulate(root, trials=10, seed=1, strategy="fixed")  # pmf missing
    with pytest.raises(ValueError):
        simulate(root, trials=10, seed=1, strategy="nonsense")
    # only the fixed strategy reads a pmf: the others refuse one rather
    # than ignore it
    for strategy in ("alternating", "lfd"):
        with pytest.raises(ValueError, match=f"^the {strategy} strategy "
                           "takes no pmf"):
            simulate(root, trials=10, seed=1, strategy=strategy,
                     pmf=list(model.p1))
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            simulate(root, trials=trials, seed=1, strategy="fixed",
                     pmf=list(model.p1))


def test_simulate_means_lie_within_five_standard_errors():
    """One seeded stream per call: on the 15-sample reference design under
    the uniform probe, every one of the seeds 0-99 gives a 2,000-trial mean
    within 5 standard errors of the exact E[tau], with the variance taken
    from the exact stop-time PMF."""
    seeds, trials, probe = range(100), 2000, [Fraction(1, 2)] * 2
    _, _, root = small_fig(15)
    pmf = evaluate(root, probe).stop_time_pmf
    mu = sum(n * q for n, q in pmf)
    var = sum(n * n * q for n, q in pmf) - mu * mu
    far = [seed for seed in seeds
           if (simulate(root, trials, seed, "fixed", probe).mean_sample_size
               - mu) ** 2 > 25 * var / trials]
    assert far == []


@pytest.mark.parametrize("strategy", ["fixed", "lfd", "alternating"])
@pytest.mark.parametrize("model", [
    bernoulli_model("0.8", "0.2", 20, 20, 8),
    make_model(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], 20, 20, 6),
    make_model(["1/2", "1/2", "0"], ["1/4", "0", "3/4"], 7, 9, 5),
], ids=["reference", "ternary", "asymmetric"])
def test_simulate_equals_the_cross_multiplying_loop(model, strategy):
    table = backward_recursion(model)
    root, want = extract_tree(table), frac_extract_tree(table)
    pmf = list(model.p2) if strategy == "fixed" else None
    for seed in (1, 7, 151):
        assert simulate(root, 200, seed, strategy, pmf) == \
            simulate_loop(want, 200, seed, strategy, pmf)


class _Scripted:
    """Stands in for ``random.Random``: hands out the given 64-bit draws."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def getrandbits(self, _):
        return next(self.draws)


@pytest.mark.parametrize("p, u, stops", [
    (Fraction(0), 0, True),                 # p_continue = 0 stops at every draw
    (Fraction(1), 2**64 - 1, False),        # p_continue = 1 at none
    (Fraction(1, 2), 2**63, True),          # u exactly on num * 2**64 / den
    (Fraction(1, 2), 2**63 - 1, False),
    (Fraction(3, 8), 3 * 2**61, True),
    (Fraction(3, 8), 3 * 2**61 - 1, False),
    (Fraction(1, 3), 2**64 // 3 + 1, True),  # off the dyadic grid: the ceiling
    (Fraction(1, 3), 2**64 // 3, False),
])
def test_stop_cutoff_is_the_exact_comparison(monkeypatch, p, u, stops):
    assert (u >= _cut(p.numerator, p.denominator)) is stops
    assert (u * p.denominator >= p.numerator * 2**64) is stops
    # one node that continues with probability p into two sure stops
    # z1 = z2 = g = 1, as integers over 1
    leaf = policy.PolicyNode(DesignState(1, (1, 0), 1, 1, 1, 1, 1), 0, None,
                             Fraction(0), Decision.H2, None, None)
    root = policy.PolicyNode(DesignState(0, (0, 0), 1, 1, 1, 1, 1), 1, 1, p,
                             Decision.H1, (True, True), (leaf, leaf))
    for run in (simulate, simulate_loop):
        monkeypatch.setattr(policy.random, "Random",
                            lambda seed: _Scripted([u, 0]))
        rep = run(root, 1, 0, "alternating")
        assert rep.freq_h1 == (1 if stops else 0)
        assert rep.max_sample_size == (0 if stops else 1)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_dot_export_shape():
    _, _, root = small_fig(2)
    dot = tree_to_dot(lfd_tree(root))
    assert dot.startswith("digraph policy {") and dot.rstrip().endswith("}")
    assert 'label="1/1"' in dot          # root continues surely
    assert dot.count('label="0"') == 2   # both depth-1 stops
    assert 'label="1/2 (0.500000)"' in dot


def test_json_export_round_trip():
    _, _, root = small_fig(2)
    blob = json.loads(tree_to_json(lfd_tree(root)))
    assert blob["counts"] == [0, 0]
    assert blob["e_enter"] == 1 and blob["p_continue"] == "1/1"
    kids = blob["children"]
    assert [k["decision"] for k in kids] == ["H2", "H1"]
    assert all(k["children"] is None for k in kids)


weights = st.lists(st.integers(min_value=0, max_value=6), min_size=3,
                   max_size=3)


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([2, 3]), w1=weights, w2=weights,
       lam1=st.integers(min_value=1, max_value=40),
       lam2=st.integers(min_value=1, max_value=40),
       horizon=st.integers(min_value=1, max_value=7), data=st.data())
def test_exporters_match_the_dict_oracles(k, w1, w2, lam1, lam2, horizon,
                                          data):
    """Both exporters write exactly what the node-by-node oracles write,
    on display cuts and full trees, from the root and from a node below."""
    w1, w2 = w1[:k], w2[:k]
    assume(sum(w1) and sum(w2))
    p1 = [Fraction(w, sum(w1)) for w in w1]
    p2 = [Fraction(w, sum(w2)) for w in w2]
    assume(p1 != p2)
    table = backward_recursion(make_model(p1, p2, lam1, lam2, horizon))
    cut = data.draw(st.none() | st.integers(min_value=1, max_value=horizon))
    root = lfd_tree(extract_tree(table)) if cut is None else \
        extract_tree(table, cut)
    node = root
    for x in data.draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                                max_size=horizon)):
        if node.children is None:
            break
        node = node.children[x]
    for start in (root, node):
        assert tree_to_json(start) == tree_json_text(start)
        assert tree_to_dot(start) == tree_dot_text(start)


def test_exporters_match_the_dict_oracles_on_the_ternary_cut():
    model = make_model(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], 20, 20, 8)
    root = extract_tree(backward_recursion(model), max_depth=7)
    assert tree_to_json(root) == tree_json_text(root)
    assert tree_to_dot(root) == tree_dot_text(root)


# ---------------------------------------------------------------------------
# integer evaluation and equalization against the Fraction oracles
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([2, 3]), w1=weights, w2=weights,
       lam1=st.integers(min_value=1, max_value=40),
       lam2=st.integers(min_value=1, max_value=40),
       horizon=st.integers(min_value=1, max_value=6), probe=weights)
@example(k=3, w1=[2, 2, 0], w2=[1, 0, 3], lam1=20, lam2=40, horizon=1,
         probe=[0, 1, 0])
@example(k=2, w1=[1, 4, 0], w2=[4, 1, 0], lam1=20, lam2=30, horizon=6,
         probe=[0, 1, 0])
def test_integer_evaluation_matches_the_fraction_oracles(
        k, w1, w2, lam1, lam2, horizon, probe):
    """``evaluate`` on the model's PMFs, a drawn probe and every point mass,
    and ``verify_equalization``, equal the Fraction passes exactly."""
    w1, w2, probe = w1[:k], w2[:k], probe[:k]
    assume(sum(w1) and sum(w2) and sum(probe) and lam1 != lam2)
    p1 = [Fraction(w, sum(w1)) for w in w1]
    p2 = [Fraction(w, sum(w2)) for w in w2]
    assume(p1 != p2)
    table = backward_recursion(make_model(p1, p2, lam1, lam2, horizon))
    root, want = extract_tree(table), frac_extract_tree(table)
    point_masses = [[int(x == y) for x in range(k)] for y in range(k)]
    drawn = [Fraction(w, sum(probe)) for w in probe]
    for pmf in (p1, p2, drawn, *point_masses):
        assert evaluate(root, pmf) == frac_evaluate(root, pmf) == \
            frac_evaluate(want, pmf)
    assert verify_equalization(root) == frac_verify_equalization(root) == \
        frac_verify_equalization(want)


def test_randomized_stop_matches_the_fraction_oracles():
    # after one sample of symbol 0, lam1 * z1 = 20/2 = 40/4 = lam2 * z2:
    # the test stops there and decides by a fair coin
    model = make_model(["1/2", "1/2", "0"], ["1/4", "0", "3/4"],
                       lam1=20, lam2=40, horizon=1)
    root = extract_tree(backward_recursion(model))
    tie = root.children[0]
    assert root.p_continue == 1 and tie.p_continue == 0
    assert tie.decision is Decision.RANDOMIZED
    assert model.lam1 * tie.state.z1 == model.lam2 * tie.state.z2 > 0
    for pmf in (model.p1, model.p2, [1, 0, 0], ["1/3"] * 3):
        rep = evaluate(root, list(pmf))
        assert rep == frac_evaluate(root, list(pmf))
    # half of P1(symbol 0) and half of P2(symbol 0)
    assert (rep.alpha1, rep.alpha2) == (Fraction(1, 4), Fraction(1, 8))
    assert verify_equalization(root) == frac_verify_equalization(root)


def test_mutated_certificates_match_the_fraction_oracle():
    _, _, root = small_fig(8)
    # a node that stops with positive probability, made to continue surely,
    # lengthens its paths past c_root: the worst-path witness is reported
    victim = next(node for node in iter_unique_nodes(root)
                  if 0 < node.p_continue < 1)
    victim.p_continue = Fraction(1)
    cert = verify_equalization(root)
    assert cert.max_path_expectation > cert.c_root
    assert cert.violating_paths
    assert cert == frac_verify_equalization(root)

    # a sure-continue node made to stop half the time shortens them
    _, _, root = small_fig(8)
    find_node(root, (1, 1)).p_continue = Fraction(1, 2)
    cert = verify_equalization(root)
    assert not cert.q0_path_expectations_equal and cert.violating_paths
    assert cert == frac_verify_equalization(root)
    for pmf in (["4/5", "1/5"], [0, 1]):
        assert evaluate(root, pmf) == frac_evaluate(root, pmf)


# ---------------------------------------------------------------------------
# simulation draws in integers
# ---------------------------------------------------------------------------

@st.composite
def pmfs(draw):
    weights = draw(st.lists(st.integers(min_value=0, max_value=10**6),
                            min_size=1, max_size=5).filter(any))
    scale = draw(st.integers(min_value=1, max_value=7))
    pmf = [Fraction(w, sum(weights)) for w in weights]
    # vary the denominators per entry: split the first entry's mass
    if len(pmf) > 1 and pmf[0] > 0:
        moved = pmf[0] / (scale + 1)
        pmf[0] -= moved
        pmf[-1] += moved
    return tuple(pmf)


def _pmf_cuts(pmf: tuple[Fraction, ...]) -> tuple[int, ...]:
    den = lcm(*(p.denominator for p in pmf))
    return _symbol_cuts([p.numerator * (den // p.denominator) for p in pmf],
                        den)


@settings(max_examples=200, deadline=None)
@given(pmfs(), st.integers(min_value=0, max_value=2**64 - 1), st.data())
def test_integer_draw_equals_fraction_draw(pmf, u, data):
    assert sum(pmf) == 1
    cuts = _pmf_cuts(pmf)
    assert bisect_right(cuts, u) == frac_draw(u, pmf)
    # draws right at a boundary of the running sums, where < and <= differ
    x = data.draw(st.integers(min_value=0, max_value=len(pmf) - 1))
    edge = sum(pmf[:x + 1], Fraction(0)) * 2**64
    for v in {int(edge) - 1, int(edge), int(edge) + 1}:
        if 0 <= v < 2**64:
            assert bisect_right(cuts, v) == frac_draw(v, pmf)


def test_integer_draw_at_exact_dyadic_boundaries():
    pmf = (Fraction(1, 4), Fraction(0), Fraction(3, 4))
    cuts = _pmf_cuts(pmf)
    assert [bisect_right(cuts, u) for u in (0, 2**62 - 1, 2**62, 2**64 - 1)] == \
        [0, 0, 2, 2]
