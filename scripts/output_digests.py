#!/usr/bin/env python3
"""Digests of every `npkw` output on the benchmark workloads and the README.

Runs the command line of the checkout this script sits in (its ``src/``) on
the three benchmark workloads (`ref15`, `fast40`, `tern10`) and on the
README's 21-sample examples, each workload in a fresh temporary directory:
`design`, `tree --depth 7` (to files and to stdout), `eval` with its default
probes, with `--probe 0.65,0.35` and with a point-mass probe (`1,0`, or
`0,1,0` on the ternary workload), `verify`, `simulate` with the `fixed`,
the `lfd` and the `alternating` strategy, and `compare`, then inputs the
command line must
reject with exit code 2 (a model flag beside `--table`, `--lambda` beside
`--lambda1`, `--depth 0`, a probe of the wrong length, `--table` for
`compare`, a directory as the table).  The benchmark workloads are all
mirror-symmetric, so it also runs `design`, `verify`, `eval`,
`tree --depth 7` and `simulate --strategy lfd` on one model that is not
(0.7 vs 0.4 with lambda 20 vs 30, horizon 15), where the recursion merges
every state and extraction reads every split map directly.  Five more `compare` runs cover a
non-default `--grid` on `ref15` and four coins that are not mirror
images of themselves: 0.8 vs 0.15, whose Kiefer-Weiss stop labels cross
off the centre line of each row; 0.85 vs 0.3, whose lambda search runs to
2**353 without a match (exit 2); 0.7 vs 0.4, whose SPRT errors no test
stopping by sample 80 matches (exit 2); and 0.8 vs 0.6, which has no
symmetric SPRT or FSST at all and exits 2 before any solve.  Last come
the parser's own outputs: `npkw` with no arguments, `npkw --help`,
`npkw <command> --help` for each of the six commands and an unknown
command (help is formatted for 80 columns).  For every run it prints the
exit code and the sha256 of stdout, of stderr and of every file the run
wrote or changed.  Paths are relative to the working directory, so two
checkouts print the same lines exactly when their outputs are
byte-identical:

    python3 scripts/output_digests.py > new.txt
    python3 /path/to/other/checkout/scripts/output_digests.py > old.txt
    diff old.txt new.txt

It takes no options; it runs one command at a time and leaves nothing
behind.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

BERNOULLI = "--theta1 {} --theta2 {} --lambda {} --horizon {}"
WORKLOADS = {  # flags, the uniform probe, a point-mass probe
    "ref15": (BERNOULLI.format("0.8", "0.2", 20, 15), "1/2,1/2", "1,0"),
    "fast40": (BERNOULLI.format("0.9", "0.1", 3, 40), "1/2,1/2", "1,0"),
    "tern10": ("--pmf1 1/2,1/4,1/4 --pmf2 1/4,1/4,1/2 --lambda 20 "
               "--horizon 10", "1/3,1/3,1/3", "0,1,0"),
}
MODEL21 = BERNOULLI.format("0.8", "0.2", 20, 21)
ASYMMETRIC = "--theta1 0.7 --theta2 0.4 --lambda1 20 --lambda2 30 --horizon 15"
COINS = BERNOULLI.format("{}", "{}", 20, 15)


def workload_runs(flags: str, uniform: str, point: str) -> list[str]:
    return [
        f"design {flags} --out T.json",
        "tree --table T.json --depth 7 --out F",
        "tree --table T.json --depth 7",
        "eval --table T.json --out R.json",
        "eval --table T.json --probe 0.65,0.35 --out P.json",
        f"eval --table T.json --probe {point} --out Q.json",
        "verify --table T.json",
        f"simulate --table T.json --probe {uniform} --trials 2000 --seed 1",
        "simulate --table T.json --strategy lfd --trials 2000 --seed 1",
        "simulate --table T.json --strategy alternating --trials 2000",
        f"compare {flags} --out C",
        "verify --table T.json --horizon 7",
        "eval --table T.json --lambda 3",
        f"design {flags} --lambda1 3 --out U.json",
        "tree --table T.json --depth 0",
        "eval --table T.json --probe 1,0,0,0",
        "simulate --table T.json --probe 1,0,0,0",
        "compare --table T.json",
        "verify --table .",
    ]


README_RUNS = [
    f"design {MODEL21} --out design.json",
    "tree --table design.json --depth 7 --out figure",
    "eval --table design.json --probe 0.65,0.35 --out report.json",
    "verify --table design.json",
    "simulate --table design.json --probe 0.5,0.5 --trials 10000 --seed 7",
    f"compare {MODEL21} --out tables",
]

ASYMMETRIC_RUNS = [
    f"design {ASYMMETRIC} --out T.json",
    "verify --table T.json",
    "eval --table T.json --out R.json",
    "tree --table T.json --depth 7",
    "simulate --table T.json --strategy lfd --trials 2000 --seed 1",
]


COMPARE_RUNS = [
    f"compare {WORKLOADS['ref15'][0]} --grid 1/7:6/7:11 --out G",
    f"compare {COINS.format('0.8', '0.15')} --out C",
    f"compare {COINS.format('0.85', '0.3')} --out C",
    f"compare {COINS.format('0.7', '0.4')} --out C",
    f"compare {COINS.format('0.8', '0.6')} --out C",
]


PARSER_RUNS = ["", "--help",
               *(f"{command} --help" for command in
                 ("design", "tree", "eval", "compare", "verify", "simulate")),
               "bogus"]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot(work: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), "rb") as handle:
            out[name] = sha(handle.read())
    return out


def run_all(label: str, runs: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1",
               COLUMNS="80")
    with tempfile.TemporaryDirectory(prefix="npkw-digests-") as work:
        for argv in runs:
            before = snapshot(work)
            proc = subprocess.run([sys.executable, "-m", "npkw.cli",
                                   *argv.split()],
                                  cwd=work, env=env, capture_output=True)
            after = snapshot(work)
            files = " ".join(f"{name}={digest}"
                             for name, digest in after.items()
                             if before.get(name) != digest)
            print(f"{label} | npkw {argv} | exit {proc.returncode} | "
                  f"stdout={sha(proc.stdout)} stderr={sha(proc.stderr)} | "
                  f"{files}", flush=True)


def main() -> None:
    for label, (flags, uniform, point) in WORKLOADS.items():
        run_all(label, workload_runs(flags, uniform, point))
    run_all("readme", README_RUNS)
    run_all("asym15", ASYMMETRIC_RUNS)
    run_all("coins", COMPARE_RUNS)
    run_all("parser", PARSER_RUNS)


if __name__ == "__main__":
    main()
