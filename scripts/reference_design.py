#!/usr/bin/env python3
"""Build the 21-sample reference design and print its headline numbers.

Runs the whole pipeline in exact arithmetic: value recursion, policy and
adversary extraction, certificate checks, and an exact evaluation under a
probe distribution of your choice.

    python scripts/reference_design.py
    python scripts/reference_design.py --probe 0.65,0.35 --horizon 15
"""

import argparse
import time
from fractions import Fraction

from npkw import (
    backward_recursion,
    bernoulli_model,
    evaluate,
    extract_tree,
    find_node,
    lfd_range,
    lfd_tree,
    max_conditional_remaining,
    pwl_eval,
    slope_right,
    verify_equalization,
    verify_lfd_support,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theta1", default="0.8")
    ap.add_argument("--theta2", default="0.2")
    ap.add_argument("--lam", type=int, default=20)
    ap.add_argument("--horizon", type=int, default=21)
    ap.add_argument("--probe", default="1/2,1/2",
                    help="comma-separated PMF for the exact evaluation")
    args = ap.parse_args()

    model = bernoulli_model(args.theta1, args.theta2,
                            lam1=args.lam, lam2=args.lam,
                            horizon=args.horizon)
    t0 = time.perf_counter()
    table = backward_recursion(model)
    t1 = time.perf_counter()
    tree = extract_tree(table)
    t2 = time.perf_counter()

    root = table.rho[(0, 0)]
    print(f"model: Bernoulli {args.theta1} vs {args.theta2}, "
          f"lambda = {args.lam}, horizon = {args.horizon}")
    print(f"recursion {t1 - t0:.2f}s, extraction {t2 - t1:.2f}s")
    print()
    print(f"minimax cost (root value):      {pwl_eval(root, 1)} "
          f"~= {float(pwl_eval(root, 1)):.6f}")
    print(f"worst-case E[tau] (root slope): {slope_right(root, 1)}")
    print(f"root slice slopes:              "
          f"{[s for s, _ in root.segments]}")
    print(f"max conditional remaining:      {max_conditional_remaining(tree)}")
    lo, hi = lfd_range(tree)
    print(f"LFD success-probability range:  ({float(lo):.6f}, {float(hi):.6f})")
    two = find_node(lfd_tree(tree), (1, 1))
    print(f"after two successes:            p_continue = {two.p_continue}, "
          f"LFD success ~= {float(two.lfd_probs[1]):.4f}")
    print()

    cert = verify_equalization(tree)
    support = verify_lfd_support(tree, model)
    print(f"equalization certificate: c = {cert.c_root}, "
          f"passes = {cert.passes} "
          f"({cert.n_q0_positive_paths} adversary-positive paths)")
    print(f"LFD support certificate:  passes = {support.passes}")
    print()

    probe = args.probe.split(",")
    rep = evaluate(tree, probe)
    print(f"probe {args.probe}:")
    print(f"  E[tau]  = {rep.expected_sample_size} "
          f"~= {float(rep.expected_sample_size):.6f}")
    print(f"  alpha1  = {float(rep.alpha1):.6e}")
    print(f"  alpha2  = {float(rep.alpha2):.6e}")
    head = ", ".join(
        f"P(tau={n}) ~= {float(m):.4f}" for n, m in rep.stop_time_pmf[:4]
    )
    print(f"  stopping-time PMF head: {head}")
    # saddle identity: the design's cost does not depend on the probe and
    # re-telescopes to the root value exactly
    cost = (rep.expected_sample_size
            + model.lam1 * rep.alpha1 + model.lam2 * rep.alpha2)
    assert cost == pwl_eval(root, 1)
    print(f"  E + lam1*a1 + lam2*a2 == root value: {cost} (exact)")


if __name__ == "__main__":
    main()
