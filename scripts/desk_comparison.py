#!/usr/bin/env python3
"""Desk-scale comparison of SPRT, fixed-sample and Kiefer-Weiss tests.

For a symmetric Bernoulli testing problem and a target error level, designs
the three classical baselines with exact arithmetic and prints the numbers
behind the usual robustness story: the SPRT is fastest at the hypotheses
but slow and heavy-tailed in between; the fixed test is flat; the
Kiefer-Weiss test caps the worst case.

    python scripts/desk_comparison.py                 # 1e-3 and 1e-4 levels
    python scripts/desk_comparison.py --alpha 1/100
"""

import argparse
from fractions import Fraction

from npkw import (
    bernoulli_model,
    fsst_analyze,
    fsst_design,
    kwt_analyze,
    kwt_matched,
    sprt_analyze,
    sprt_design,
)


def report(theta1: str, theta2: str, alpha: Fraction) -> None:
    model = bernoulli_model(theta1, theta2, lam1=1, lam2=1, horizon=1)
    sprt = sprt_design(model, alpha)
    fsst = fsst_design(model, alpha)
    try:
        kwt, kwt_model = kwt_matched(model, sprt.alpha1, sprt.alpha2)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc

    nominal = sprt_analyze(sprt.design, model.p1[1])
    middle = sprt_analyze(sprt.design, Fraction(1, 2))
    kwt_mid = kwt_analyze(kwt, kwt_model, Fraction(1, 2))[0]

    print(f"--- target alpha = {alpha} ({float(alpha):.0e}) ---")
    print(f"SPRT thresholds +-{sprt.design.upper} "
          f"(exact errors {float(sprt.alpha1):.3e})")
    print(f"FSST n = {fsst.n} (errors {float(fsst_analyze(fsst, model)[0]):.3e})")
    print(f"KWT truncates at {kwt.truncation_level}")
    print(f"E[tau] at theta={theta1}:  SPRT "
          f"{float(nominal.expected_sample_size):7.3f}   FSST {fsst.n}")
    print(f"E[tau] at theta=1/2:  SPRT {float(middle.expected_sample_size):7.3f}"
          f"   FSST {fsst.n}   KWT {float(kwt_mid):7.3f}")
    print(f"SPRT excess over FSST at 1/2: "
          f"{float(middle.expected_sample_size) - fsst.n:+.3f}")
    print(f"SPRT P(tau > 65) at 1/2:      {float(middle.tail(65)):.4f}")
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theta1", default="0.8")
    ap.add_argument("--theta2", default="0.2")
    ap.add_argument("--alpha", default=None,
                    help="single target error level (default: 1e-3 and 1e-4)")
    args = ap.parse_args()

    if args.alpha is not None:
        levels = [Fraction(args.alpha)]
    else:
        levels = [Fraction(1, 1000), Fraction(1, 10_000)]
    for alpha in levels:
        report(args.theta1, args.theta2, alpha)


if __name__ == "__main__":
    main()
