"""Acceptance checklist for the 21-sample Bernoulli(0.8/0.2) reference design.

One test per numbered criterion; letters split independent clauses so a red
clause cannot shadow a green one.  Run ``pytest -v tests/test_acceptance.py``
for the per-criterion pass/fail lines.

Four clauses (03b, 04b, 08a, 08c) come with stated reference numbers that
exact arithmetic contradicts (03b's is unreachable for any correct design).
Each keeps its stated number in its comment and asserts it where it does
hold; the endpoint it asserts is the exact value, backed by a route
independent of the code under test: the mirror law, the saddle identity,
the gambler's-ruin closed form or the walk-survival oracle.
"""

import random
from fractions import Fraction

from npkw.baselines import (
    FsstDesign,
    fsst_analyze,
    fsst_design,
    sprt_analyze,
    sprt_design,
)
from npkw.bellman import (
    backward_recursion,
    bernoulli_model,
    kwt_truncation_bound,
    kwt_truncation_closed_form,
    make_model,
)
from npkw.cli import main
from npkw.policy import (
    evaluate,
    extract_tree,
    find_node,
    iter_unique_nodes,
    lfd_range,
    lfd_tree,
    max_conditional_remaining,
    verify_equalization,
    verify_lfd_support,
)
from npkw.pwl import pwl, pwl_eval, slope_right, supconv

from oracles import (
    best_response_cost,
    brute_minimax_value,
    grid_supconv_max,
    simplex_grid,
    walk_survival,
)


# ---------------------------------------------------------------------------
# 1. root cost slice structure
# ---------------------------------------------------------------------------

def test_criterion_01_root_slice_structure(fig_table):
    root = fig_table.rho[(0, 0)]
    assert slope_right(root, 0) == 21
    slopes = [s for s, _ in root.segments]
    assert all(isinstance(s, int) for s in slopes)
    assert slopes[0] == 21
    # nonincreasing, in steps of exactly two
    assert {b - a for a, b in zip(slopes, slopes[1:])} == {-2}
    print("criterion 01: PASS — root slice slopes start at 21 and fall by 2")


# ---------------------------------------------------------------------------
# 2. reference-figure reproduction (exact rationals)
# ---------------------------------------------------------------------------

def test_criterion_02_figure_reproduction(fig_tree, fig_display):
    assert fig_tree.e_enter == 3  # root expected sample size
    two = find_node(fig_display, (1, 1))  # after two successes
    assert two.p_continue == Fraction(1, 3)
    assert two.e_continue == 3
    # the displayed seven levels top out at 12, at seven straight successes
    # (and at the mirror node — the model is symmetric)
    assert max_conditional_remaining(fig_display) == 12
    seven = find_node(fig_display, (1,) * 7)
    assert seven.state.counts == (0, 7)
    assert seven.e_continue == 12
    attained = {
        n.state.counts for n in iter_unique_nodes(fig_display)
        if n.e_continue == 12 and 0 < n.p_continue < 1
    }
    assert attained == {(0, 7), (7, 0)}
    print("criterion 02: PASS — root E = 3, fade 1/3 at two successes, max 12")


# ---------------------------------------------------------------------------
# 3. least-favorable-distribution decimals
# ---------------------------------------------------------------------------

def test_criterion_03a_two_successes_lfd(fig_tree):
    succ = find_node(lfd_tree(fig_tree), (1, 1)).lfd_probs[1]
    assert abs(float(succ) - 0.1374) < 5e-4
    print("criterion 03a: PASS — LFD success probability 0.1374 after "
          "two successes")


def test_criterion_03b_lfd_range(fig_display):
    # Stated target: range within 5e-4 of (0.137, 0.815).  No correct design
    # meets it.  Swapping the two symbols and the two hypotheses together
    # maps this symmetric design onto itself and sends every LFD success
    # probability s to 1 - s, so over any mirror-closed collection of nodes
    # min + max == 1 exactly — but 0.137 + 0.815 = 0.952.  The displayed
    # seven levels span (0.120107, 0.879893), reached at depth 7 with counts
    # (3, 4) and (4, 3), and the full tree (4/69, 65/69); both ranges are
    # pinned in test_policy.  The stated decimals are values at single
    # histories, not range endpoints: 0.137 along the success-side fading
    # chain 11, 1101, 110101 (continue with probability 1/3; the first is
    # 03a's 0.1374) and 0.815 along the one-net-failure sure-continue chain
    # 001, 00101, 0010101 — two families that are not mirrors of each other.
    lo, hi = lfd_range(fig_display)
    assert lo + hi == 1
    assert abs(float(lo) - 0.120107) < 1e-6
    assert abs(float(hi) - 0.879893) < 1e-6
    extremes = {
        n.state.counts for n in iter_unique_nodes(fig_display)
        if n.p_continue > 0 and n.z0 > 0 and n.lfd_probs is not None
        and n.lfd_probs[1] in (lo, hi)
    }
    assert extremes == {(3, 4), (4, 3)}

    chains = (
        (("11", "1101", "110101"), 0.137, Fraction(1, 3)),      # fading
        (("001", "00101", "0010101"), 0.815, Fraction(1)),      # sure-continue
    )
    for paths, stated, p_continue in chains:
        assert lo < Fraction(str(stated)) < hi
        for path in paths:
            symbols = tuple(int(c) for c in path)
            node = find_node(fig_display, symbols)
            assert node.p_continue == p_continue
            succ = node.lfd_probs[1]
            assert abs(float(succ) - stated) < 5e-4
            assert lo < succ < hi
            # the mirror law at this very history
            mirror = find_node(fig_display, tuple(1 - x for x in symbols))
            assert mirror.lfd_probs[0] == succ
    print("criterion 03b: PASS — displayed LFD range (0.120107, 0.879893) "
          "sums to 1; 0.137 and 0.815 hold at their histories, inside it")


# ---------------------------------------------------------------------------
# 4. error-versus-horizon endpoints
# ---------------------------------------------------------------------------

def test_criterion_04a_fsst_endpoint(fig_model):
    a1, a2 = fsst_analyze(FsstDesign(n=3, k=2), fig_model)
    assert a1 == a2 == Fraction(13, 125) == Fraction(104, 1000)
    print("criterion 04a: PASS — three-sample majority vote errs 13/125")


def test_criterion_04b_design_average_error(fig_tree, fig_table):
    # Stated target: average error within 1e-3 (relative) of 0.0782.  The
    # exact design value is 0.0980124 (alpha1 == alpha2 by symmetry and
    # they do not depend on the probe), 20% away, and 0.0782 belongs to no
    # nearby design: with lambda = 20 every horizon from 21 to 41 gives
    # 0.098012..., and at horizon 21 every lambda from 10 to 22 gives this
    # same E = 3 design, while 23 to 40 jump to E = 5 with 0.0534013.
    # Two routes must agree exactly: forward evaluation of the extracted
    # tree, and the root cost slice through the saddle identity
    # E + lam*(a1 + a2) = rho(1) — the route 04c checks against the N = 3
    # majority vote and 09a against the brute-force minimax for N <= 4.
    rep = evaluate(fig_tree, ["0.8", "0.2"])
    avg = (rep.alpha1 + rep.alpha2) / 2
    root = fig_table.rho[(0, 0)]
    assert avg == (pwl_eval(root, 1) - slope_right(root, 1)) / 40
    target = Fraction("0.0980124")
    assert abs(avg - target) <= target / 1000
    print("criterion 04b: PASS — N=21 average error 0.0980124, equal by "
          "evaluation and by the root slice")


def test_criterion_04c_error_nonincreasing_in_horizon():
    values = []
    for n in range(3, 22, 2):
        model = bernoulli_model("0.8", "0.2", lam1=20, lam2=20, horizon=n)
        root = backward_recursion(model).rho[(0, 0)]
        # saddle identity: E + lam*(a1 + a2) = rho(1), E = right slope at 1,
        # so the equal-lambda average error falls out of the root slice
        values.append((pwl_eval(root, 1) - slope_right(root, 1)) / 40)
    assert values[0] == Fraction(13, 125)  # N = 3 *is* the majority vote
    assert all(b <= a for a, b in zip(values, values[1:]))
    print("criterion 04c: PASS — average error nonincreasing over N = 3..21")


# ---------------------------------------------------------------------------
# 5. equalization property
# ---------------------------------------------------------------------------

def test_criterion_05_equalization(fig_tree):
    canonical = (["0.8", "0.2"], ["0.2", "0.8"], ["1/2", "1/2"])
    for probe in canonical:
        assert evaluate(fig_tree, probe).expected_sample_size == 3
    rng = random.Random(20260816)
    for _ in range(25):
        a = Fraction(rng.randint(1, 9999), 10_000)
        assert evaluate(fig_tree, [a, 1 - a]).expected_sample_size == 3

    cert = verify_equalization(fig_tree)
    assert cert.passes
    assert cert.c_root == 3

    # sabotage a private copy on an adversary-positive path: verification
    # must notice
    small = extract_tree(backward_recursion(
        bernoulli_model("0.8", "0.2", lam1=20, lam2=20, horizon=3)
    ))
    victim = find_node(small, (1, 0))
    victim.p_continue = Fraction(1, 2)
    assert not verify_equalization(small).passes
    print("criterion 05: PASS — E = 3 under 28 probes, certificate c = 3, "
          "mutation caught")


# ---------------------------------------------------------------------------
# 6. least-favorable-distribution support
# ---------------------------------------------------------------------------

def test_criterion_06_lfd_support(fig_tree, fig_model, fig_display):
    report = verify_lfd_support(fig_tree, fig_model)
    assert report.passes
    assert report.mutual_support == (0, 1)

    # displayed seven levels: every transition strictly interior
    for node in iter_unique_nodes(fig_display):
        if node.p_continue > 0 and node.lfd_probs is not None:
            assert all(0 < q < 1 for q in node.lfd_probs)

    # deeper levels do zero out arrows, but only into children that stop
    # surely anyway (the sample carried by such an arrow would have been
    # the last) — the one degeneracy the support property allows.  Arrows
    # are counted once per history: a shared node counts as many times as
    # there are root paths to it.  The LFD is read at each history, with
    # the adversary's mass there.
    paths = lfd_tree(fig_tree)
    n_histories = {id(paths): 1}
    degenerate = 0
    for node in sorted(iter_unique_nodes(paths), key=lambda n: n.depth):
        mult = n_histories[id(node)]
        if node.p_continue > 0 and node.lfd_probs is not None:
            for x, q in enumerate(node.lfd_probs):
                if q == 0:
                    degenerate += mult
                    assert node.children[x].sure_stop_state
        for child in node.children or ():
            n_histories[id(child)] = n_histories.get(id(child), 0) + mult
    assert degenerate == 46_808
    print("criterion 06: PASS — support certificate holds; displayed levels "
          "strictly interior")


# ---------------------------------------------------------------------------
# 7. nontruncation witness and truncation bound
# ---------------------------------------------------------------------------

def test_criterion_07_truncation(fig_tree, fig_model):
    # a positive-probability path of continues reaches the full horizon
    seen = {id(fig_tree)}
    deepest = 0
    stack = [fig_tree]
    while stack:
        node = stack.pop()
        deepest = max(deepest, node.state.depth)
        if node.p_continue > 0 and node.children is not None:
            for x, child in enumerate(node.children):
                if node.mass[x] and id(child) not in seen:
                    seen.add(id(child))
                    stack.append(child)
    assert deepest == fig_model.horizon == 21

    # single common-support symbol: the design truncates at the exact bound
    # long before its 21-sample budget
    tri = make_model(["1/2", "1/2", "0"], ["0", "1/2", "1/2"],
                     lam1=20, lam2=20, horizon=21)
    bound = kwt_truncation_bound(tri)
    assert bound == kwt_truncation_closed_form(tri) == 4
    root = extract_tree(backward_recursion(tri))
    deepest_continue = max(
        n.state.depth for n in iter_unique_nodes(root) if n.p_continue > 0
    )
    assert deepest_continue + 1 == bound
    print("criterion 07: PASS — depth-21 witness; singleton-support design "
          "truncates at 4")


# ---------------------------------------------------------------------------
# 8. sequential-test desk-scale claims (symmetric 1e-4 error target)
# ---------------------------------------------------------------------------

# error level -> (smallest SPRT threshold, smallest matched fixed-sample n);
# the stated level is 1e-4, but two stated windows belong to the 1e-3 design
_DESK = {Fraction(1, 10_000): (7, 31), Fraction(1, 1_000): (5, 21)}


def _desk_designs(level=Fraction(1, 10_000)):
    model = bernoulli_model("0.8", "0.2", lam1=1, lam2=1, horizon=1)
    sprt = sprt_design(model, level)
    fsst = fsst_design(model, level)
    assert (sprt.design.upper, fsst.n) == _DESK[level]
    return sprt, fsst


def test_criterion_08a_running_tail():
    # Stated target: P(tau > 65) at theta = 0.5 within [0.03, 0.07] at the
    # 1e-4 level.  Both cannot hold: the 1e-4 design (thresholds +-7) has
    # tail 4432676349411459653 / 2**64 = 0.2403, while the [0.03, 0.07]
    # window belongs to the 1e-3 design (thresholds +-5, tail 0.0472).
    # Both tails must equal the walk-survival oracle exactly.
    half = Fraction(1, 2)
    for level, low, high in (
        (Fraction(1, 10_000), Fraction(2402, 10_000), Fraction(2404, 10_000)),
        (Fraction(1, 1_000), Fraction(3, 100), Fraction(7, 100)),
    ):
        sprt, _ = _desk_designs(level)
        tail = sprt_analyze(sprt.design, half).tail(65)
        assert tail == walk_survival(half, sprt.design.upper, 65)
        assert low <= tail <= high
    print("criterion 08a: PASS — P(tau > 65) = 0.2403 at 1e-4 and in "
          "[0.03, 0.07] at 1e-3, both equal to the walk oracle")


def test_criterion_08b_offhypothesis_speed():
    sprt, fsst = _desk_designs()
    mean = sprt_analyze(sprt.design, Fraction(4, 5)).expected_sample_size
    assert Fraction(1, 4) <= mean / fsst.n <= Fraction(9, 20)
    print("criterion 08b: PASS — E[tau] at 0.8 is 0.25–0.45 of the "
          "fixed-sample n")


def test_criterion_08c_worst_case_excess():
    # Stated target: E[tau] at theta = 0.5 exceeds the fixed-sample n by
    # 4 +- 2 at the 1e-4 level.  By gambler's ruin the unbiased walk from 0
    # between -A and A absorbs in A**2 steps on average, so at 1e-4 (A = 7,
    # n = 31) the excess is 49 - 31 = 18; the stated window belongs to the
    # 1e-3 design (A = 5, n = 21) instead: 25 - 21 = 4.
    half = Fraction(1, 2)
    for level, low, high in (
        (Fraction(1, 10_000), 18, 18),  # 7**2 - 31
        (Fraction(1, 1_000), 2, 6),     # the stated 4 +- 2
    ):
        sprt, fsst = _desk_designs(level)
        a = sprt.design.upper
        mean = sprt_analyze(sprt.design, half).expected_sample_size
        assert mean == a * a
        assert low <= mean - fsst.n <= high
    print("criterion 08c: PASS — worst-case excess A^2 - n = 18 at 1e-4, "
          "within 4 +- 2 at 1e-3")


# ---------------------------------------------------------------------------
# 9. independent oracles
# ---------------------------------------------------------------------------

def test_criterion_09a_recursion_vs_grid_adversary():
    for horizon, steps in ((1, 4), (2, 64), (3, 16), (4, 8)):
        model = bernoulli_model("0.8", "0.2", lam1=20, lam2=20,
                                horizon=horizon)
        table = backward_recursion(model)
        exact = table.root_value()
        brute = brute_minimax_value(
            model.p1, model.p2, model.lam1, model.lam2, model.horizon,
            Fraction(1), Fraction(1), Fraction(1), 0,
            simplex_grid(2, steps),
        )
        # a grid-restricted adversary can only do worse, and by at most one
        # grid step of slope per level (slopes at depth j are <= horizon-j)
        assert brute <= exact
        assert exact - brute <= Fraction(horizon * (horizon + 1), steps)
        # exact complement to the one-sided sandwich: re-deciding
        # stop-or-continue freely against the extracted adversary arrows
        # cannot beat the root value
        root = lfd_tree(extract_tree(table))
        assert best_response_cost(root, model.lam1, model.lam2) == exact
    print("criterion 09a: PASS — grid sandwich and exact best response, "
          "N = 1..4")


def _random_slice(rng: random.Random):
    n = rng.randint(0, 4)
    slopes = sorted(rng.sample(range(0, 9), n), reverse=True)
    segments = [(s, Fraction(rng.randint(1, 16), 16)) for s in slopes]
    return pwl(Fraction(rng.randint(0, 64), 16), segments)


def test_criterion_09b_supconv_vs_grid():
    rng = random.Random(1109)
    for _ in range(200):
        fs = [_random_slice(rng), _random_slice(rng)]
        total = fs[0].domain_upper + fs[1].domain_upper
        t = total * Fraction(rng.randint(0, 32), 32)
        merged, _ = supconv(fs, total)
        exact = pwl_eval(merged, t)
        approx = grid_supconv_max(fs, t, steps=64)
        assert approx <= exact
        slope_max = max((f.segments[0][0] for f in fs if f.segments),
                        default=0)
        if t > 0:
            assert exact - approx <= Fraction(slope_max) * t / 64
        else:
            assert exact == approx
    print("criterion 09b: PASS — sup-convolution matches grid search on "
          "200 instances")


# ---------------------------------------------------------------------------
# 10. command-line determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path, capsys):
    flags = ["--theta1", "0.8", "--theta2", "0.2", "--lambda", "20",
             "--horizon", "9"]
    table = tmp_path / "table.json"
    commands = (
        ["design", *flags, "--out", str(table)],
        ["tree", "--table", str(table), "--depth", "5",
         "--out", str(tmp_path / "tree")],
        ["eval", "--table", str(table), "--probe", "0.7,0.3",
         "--out", str(tmp_path / "report.json")],
        ["verify", "--table", str(table)],
        ["simulate", "--table", str(table), "--probe", "0.6,0.4",
         "--trials", "64", "--seed", "7"],
        ["compare", *flags, "--out", str(tmp_path / "cmp")],
    )
    artifacts = (
        table,
        tmp_path / "tree.dot",
        tmp_path / "tree.json",
        tmp_path / "report.json",
        tmp_path / "cmp_curves.csv",
        tmp_path / "cmp_thresholds.csv",
        tmp_path / "cmp_sweep.csv",
    )

    def run_all():
        snap = {}
        for argv in commands:
            assert main(list(argv)) == 0
            snap[argv[0]] = capsys.readouterr().out
        for path in artifacts:
            snap[path.name] = path.read_bytes()
        return snap

    assert run_all() == run_all()
    print("criterion 10: PASS — all six commands byte-identical on rerun")
