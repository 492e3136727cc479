#!/usr/bin/env python3
"""Error of the worst-case-optimal design as its sample budget grows.

For equal error weights the average error probability of the designed test
falls out of the root cost slice alone (cost identity: value = E[tau] +
lambda * (alpha1 + alpha2), worst-case E[tau] = right slope at full mass),
so the sweep never extracts a policy tree, and one pass of `horizon_roots`
gives the root slice at every horizon.  Prints one line per odd horizon next
to the three-sample majority vote for scale, then the exact drop of the
minimax value from each horizon to the next: while the drops stay positive,
a test allowed more samples is strictly better (the paper's "can be
nontruncated").

    python scripts/horizon_sweep.py --max-horizon 21
"""

import argparse
from fractions import Fraction

from npkw import (
    FsstDesign,
    bernoulli_model,
    fsst_analyze,
    horizon_roots,
    pwl_eval,
    slope_right,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theta1", default="0.8")
    ap.add_argument("--theta2", default="0.2")
    ap.add_argument("--lam", type=int, default=20)
    ap.add_argument("--max-horizon", type=int, default=21)
    args = ap.parse_args()

    vote = bernoulli_model(args.theta1, args.theta2, lam1=1, lam2=1, horizon=3)
    fsst_avg = sum(fsst_analyze(FsstDesign(3, 2), vote), Fraction(0)) / 2
    print(f"three-sample majority vote: average error {float(fsst_avg):.6f}")
    print()
    print("horizon  worst-case E[tau]  average error  minimax value")
    values = []
    # horizon_roots reads the PMFs and the weights, not the model's horizon
    model = bernoulli_model(args.theta1, args.theta2, lam1=args.lam,
                            lam2=args.lam, horizon=3)
    roots = horizon_roots(model, range(3, args.max_horizon + 1, 2))
    for n, root in roots.items():
        value = pwl_eval(root, 1)
        e_tau = slope_right(root, 1)
        avg = (value - e_tau) / (2 * args.lam)
        print(f"{n:7d}  {e_tau:17d}  {float(avg):.10f}   {float(value):.10f}")
        values.append((n, value))

    print()
    print("exact drop of the minimax value, V(previous horizon) - V(horizon):")
    for (m, before), (n, after) in zip(values, values[1:]):
        drop = before - after
        print(f"{m:3d} -> {n:3d}: {float(drop):.3e}  = "
              f"{drop.numerator}/{drop.denominator}")


if __name__ == "__main__":
    main()
