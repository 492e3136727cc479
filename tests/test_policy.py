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
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from npkw.bellman import backward_recursion, bernoulli_model, make_model
from npkw.policy import (
    Decision,
    ExtractionError,
    evaluate,
    extract_tree,
    find_node,
    iter_nodes,
    iter_unique_nodes,
    lfd_range,
    max_conditional_remaining,
    simulate,
    tree_to_dot,
    tree_to_json,
    verify_equalization,
    verify_lfd_support,
    _cumulative,
    _pick,
)
from npkw.pwl import SplitMap, pwl, pwl_eval, slope_right, split_at
from oracles import (
    best_response_cost,
    frac_draw,
    frac_evaluate,
    frac_verify_equalization,
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
    assert root.lfd_probs == (Fraction(1, 2), Fraction(1, 2))
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
    assert fig_tree.lfd_probs == (Fraction(1, 2), Fraction(1, 2))


def test_fig_two_successes_node(fig_tree):
    node = find_node(fig_tree, (1, 1))
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
    br = best_response_cost(fig_tree, fig_model.lam1, fig_model.lam2)
    assert br == pwl_eval(fig_table.rho[(0, 0)], 1)


def test_fig_sharing_is_a_dag(fig_tree, fig_display):
    n_virtual = sum(1 for _ in iter_nodes(fig_tree))
    n_unique = sum(1 for _ in iter_unique_nodes(fig_tree))
    assert n_virtual == 947799
    assert n_unique == 2248
    # hash-consing: one node object per (counts, z0, entry label), in full
    # extractions and display cuts alike
    for root, expected in ((fig_tree, 2248), (fig_display, 75)):
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
    assert victim is find_node(root, (1, 0)) and victim.z0 > 0
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
    probs = list(victim.lfd_probs)
    probs[0], probs[1] = Fraction(0), Fraction(1)
    victim.lfd_probs = tuple(probs)
    report = verify_lfd_support(root, model)
    assert not report.passes
    assert (1,) in report.offending


def test_extraction_error_on_inconsistent_table():
    model = bernoulli_model(horizon=3, **FIG_MODEL)
    table = backward_recursion(model)
    # flatten one continuation slice, which extraction reads lifted (every
    # slope one higher): the root's promise to that child can no longer be
    # honored, which extraction must refuse to paper over
    table.lifted[(1, 0)] = pwl(4, [(1, 1)])
    with pytest.raises(ExtractionError):
        extract_tree(table)


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------

def test_display_cut_rejected_for_evaluation(fig_display):
    with pytest.raises(ValueError, match="display depth"):
        evaluate(fig_display, ["0.5", "0.5"])
    with pytest.raises(ValueError, match="display depth"):
        verify_equalization(fig_display)


def test_bad_probe_rejected(fig_tree):
    with pytest.raises(ValueError):
        evaluate(fig_tree, ["0.5", "0.6"])
    with pytest.raises(ValueError):
        evaluate(fig_tree, ["0.5", "0.25", "0.25"])


def test_find_node_off_tree(fig_display):
    with pytest.raises(KeyError):
        find_node(fig_display, (1,) * 8)  # past the display cut


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
    assert best_response_cost(root, model.lam1, model.lam2) == rho1


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
    for node in iter_unique_nodes(root):
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
    assert best_response_cost(root, model.lam1, model.lam2) == rho1


# ---------------------------------------------------------------------------
# split maps: built where extraction reads them, mirrors read through sigma
# ---------------------------------------------------------------------------

def test_split_maps_are_built_only_where_extraction_reads_them(monkeypatch):
    made = []
    post_init = SplitMap.__post_init__
    monkeypatch.setattr(SplitMap, "__post_init__",
                        lambda sm: made.append(sm) or post_init(sm))
    table = backward_recursion(bernoulli_model("0.9", "0.1", 3, 3, 40))
    assert made == []  # the solve keeps the merge pools, not the maps
    root = extract_tree(table)
    # the design stops after one sample: extraction visits the root and the
    # mirror pair (1, 0), (0, 1), and reads the map of (0, 1) for both
    assert len({node.state.counts for node in iter_unique_nodes(root)}) == 3
    assert 0 < len(made) <= 3
    assert len(table.split) == 820  # every internal state on demand


pmf_weights = st.lists(st.integers(min_value=0, max_value=6), min_size=3,
                       max_size=3)


def _own_map_lfd(table, node):
    """The node's LFD read from the split map of its own state, with no
    detour through a mirror partner."""
    sm = table.split[node.state.counts]
    z0 = node.z0
    if z0 > 0:
        return tuple(a / z0 for a in split_at(sm, z0))
    weights = [0] * len(node.state.counts)
    for op, slope, width in sm.parts:
        if slope != sm.parts[0][1]:
            break
        weights[op] += width
    total = sum(weights)
    if total == 0:
        return tuple(Fraction(1, len(weights)) for _ in weights)
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
    for counts, twin in table.twins.items():
        if counts in table.split:
            own = split_at(table.split[counts], z0)
            read = split_at(table.split[twin], z0)
            assert own == tuple(read[y] for y in table.sigma)
    for node in iter_unique_nodes(extract_tree(table)):
        if node.lfd_probs is not None:
            assert node.lfd_probs == _own_map_lfd(table, node)


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
    assert rep.mean_sample_size == Fraction(919, 300)
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
    assert lfd.mean_sample_size == Fraction(73, 24)
    alt = simulate(root, trials=120, seed=5, strategy="alternating")
    assert alt.mean_sample_size == 3
    with pytest.raises(ValueError):
        simulate(root, trials=10, seed=1, strategy="fixed")  # pmf missing
    with pytest.raises(ValueError):
        simulate(root, trials=10, seed=1, strategy="nonsense")


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_dot_export_shape():
    _, _, root = small_fig(2)
    dot = tree_to_dot(root)
    assert dot.startswith("digraph policy {") and dot.rstrip().endswith("}")
    assert 'label="1/1"' in dot          # root continues surely
    assert dot.count('label="0"') == 2   # both depth-1 stops
    assert 'label="1/2 (0.500000)"' in dot


def test_json_export_round_trip():
    _, _, root = small_fig(2)
    blob = json.loads(tree_to_json(root))
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
    root = extract_tree(table, max_depth=cut)
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
    root = extract_tree(backward_recursion(make_model(p1, p2, lam1, lam2,
                                                      horizon)))
    point_masses = [[int(x == y) for x in range(k)] for y in range(k)]
    drawn = [Fraction(w, sum(probe)) for w in probe]
    for pmf in (p1, p2, drawn, *point_masses):
        assert evaluate(root, pmf) == frac_evaluate(root, pmf)
    assert verify_equalization(root) == frac_verify_equalization(root)


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


@settings(max_examples=200, deadline=None)
@given(pmfs(), st.integers(min_value=0, max_value=2**64 - 1), st.data())
def test_integer_draw_equals_fraction_draw(pmf, u, data):
    assert sum(pmf) == 1
    cum, den = _cumulative(pmf)
    assert _pick(u, cum, den) == frac_draw(u, pmf)
    # draws right at a boundary of the running sums, where < and <= differ
    x = data.draw(st.integers(min_value=0, max_value=len(pmf) - 1))
    edge = sum(pmf[:x + 1], Fraction(0)) * 2**64
    for v in {int(edge) - 1, int(edge), int(edge) + 1}:
        if 0 <= v < 2**64:
            assert _pick(v, cum, den) == frac_draw(v, pmf)


def test_integer_draw_at_exact_dyadic_boundaries():
    pmf = (Fraction(1, 4), Fraction(0), Fraction(3, 4))
    cum, den = _cumulative(pmf)
    assert [_pick(u, cum, den) for u in (0, 2**62 - 1, 2**62, 2**64 - 1)] == \
        [0, 0, 2, 2]
