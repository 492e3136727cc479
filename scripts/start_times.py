#!/usr/bin/env python3
"""Whole-process wall times of `import npkw.cli` and of each subcommand.

Each fresh interpreter runs ``import npkw.cli`` or one subcommand on a small
model (0.8 vs 0.2, lambda 20, horizon 9), with ``PYTHONDONTWRITEBYTECODE=1``:
without ``__pycache__``, every process compiles what it imports.  It times
the checkout this script sits in and every checkout given as an argument,
rotating their order each round so that a drift in the host's speed falls
on all alike, and prints the median of the rounds in milliseconds, one
column per checkout:

    python3 scripts/start_times.py [--rounds 21] /path/to/other/checkout

It writes only to a temporary directory, which it removes.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAIN = "import sys; from npkw.cli import main; sys.exit(main(sys.argv[1:]))"
MODEL = "--theta1 0.8 --theta2 0.2 --lambda 20 --horizon 9".split()
CASES = {  # `design` writes the table that the next four read
    "import": [], "design": ["design", *MODEL, "--out", "T.json"],
    **{cmd: [cmd, "--table", "T.json"] for cmd in ("tree", "eval", "verify")},
    "simulate": ["simulate", "--table", "T.json", "--trials", "100"],
    "compare": ["compare", *MODEL, "--grid", "0.5", "--out", "C"],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", help="other checkouts to time")
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args()
    checkouts = [HERE, *map(os.path.abspath, args.checkouts)]
    n = len(checkouts)
    times = {(i, case): [] for i in range(n) for case in CASES}
    with tempfile.TemporaryDirectory(prefix="npkw-start-") as work:
        for r in range(args.rounds):
            for i in [(r + k) % n for k in range(n)]:
                env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                           PYTHONPATH=os.path.join(checkouts[i], "src"))
                cwd = os.path.join(work, str(i))
                os.makedirs(cwd, exist_ok=True)
                for case, argv in CASES.items():
                    code = MAIN if argv else "import npkw.cli"
                    start = time.perf_counter()
                    subprocess.run([sys.executable, "-c", code, *argv],
                                   env=env, cwd=cwd, check=True,
                                   stdout=subprocess.DEVNULL)
                    times[i, case].append(time.perf_counter() - start)
    print("case     " + "  ".join(checkouts))
    for case in CASES:
        print(f"{case:<8} " + "  ".join(
            f"{1000 * statistics.median(times[i, case]):7.1f}"
            for i in range(n)))


if __name__ == "__main__":
    main()
