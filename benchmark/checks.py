"""Output checks for the benchmark's `npkw` calls.

Each check tests a property the method must have, or compares against
arithmetic done here apart from `npkw` (likelihoods, stopping risks, the
root slice, binomial tails), never against a stored copy of an earlier
output.  A check raises :class:`CheckError` naming what broke, also when
the output lacks a field or does not parse.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb


class CheckError(Exception):
    """An output lacks a property it must have."""


def _checks_output(check):
    """Turn a missing field or an unparsable value met while reading an
    output into a :class:`CheckError`."""
    @functools.wraps(check)
    def checked(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise CheckError(f"malformed output: {type(exc).__name__}: {exc}") from exc
    return checked


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _search(pattern: str, text: str, what: str) -> re.Match:
    match = re.search(pattern, text, re.M)
    _require(match is not None, f"no {what} in output")
    return match


@dataclass(frozen=True)
class Model:
    """The benchmark's own copy of a workload's model, in exact rationals."""

    p1: tuple[Fraction, ...]
    p2: tuple[Fraction, ...]
    lam1: Fraction
    lam2: Fraction
    horizon: int

    @property
    def uniform(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(1, len(self.p1)) for _ in self.p1)

    def likelihoods(self, counts) -> tuple[Fraction, Fraction, Fraction]:
        z1 = z2 = Fraction(1)
        for x, c in enumerate(counts):
            z1 *= self.p1[x] ** c
            z2 *= self.p2[x] ** c
        return z1, z2, min(self.lam1 * z1, self.lam2 * z2)


@_checks_output
def check_design(model: Model, stdout: str, table_text: str) -> tuple[int, Fraction]:
    """The cost table `design` wrote, and its summary lines.

    Every record's likelihoods and stopping risk g match the model; every
    cost slice is concave, nondecreasing, with integer slopes, and never
    above g; horizon slices equal g; the table holds every count vector up
    to the horizon once.  Returns the printed root slope c and the root
    slice at z0 = 1, which must equal the printed root value.
    """
    printed = Fraction(_search(r"root value at z0 = 1: (\S+) ~=", stdout,
                               "root value").group(1))
    c = int(_search(r"\(root slope at z0 = 1\): (\d+)$", stdout,
                    "root slope").group(1))
    table = json.loads(table_text)
    head = table["model"]
    _require(
        [Fraction(v) for v in head["p1"]] == list(model.p1)
        and [Fraction(v) for v in head["p2"]] == list(model.p2)
        and Fraction(head["lambda1"]) == model.lam1
        and Fraction(head["lambda2"]) == model.lam2
        and head["horizon"] == model.horizon,
        "table header does not state the model",
    )
    k, horizon = len(model.p1), model.horizon
    records = table["states"]
    seen = {tuple(rec["counts"]) for rec in records}
    _require(
        len(records) == len(seen)
        == sum(comb(n + k - 1, k - 1) for n in range(horizon + 1)),
        f"table has {len(records)} records, not one per count vector",
    )
    root_value = None
    for rec in records:
        counts = tuple(rec["counts"])
        where = f"state {counts}"
        _require(len(counts) == k and min(counts) >= 0
                 and sum(counts) == rec["depth"] <= horizon,
                 f"{where}: bad counts")
        z1, z2, g = model.likelihoods(counts)
        _require((Fraction(rec["z1"]), Fraction(rec["z2"]), Fraction(rec["g"]))
                 == (z1, z2, g), f"{where}: likelihoods or g differ")
        rho = rec["rho"]
        top = Fraction(rho["value_at_zero"])
        _require(top >= 0, f"{where}: negative cost")
        slopes = [seg["slope"] for seg in rho["segments"]]
        widths = [Fraction(seg["width"]) for seg in rho["segments"]]
        _require(all(isinstance(s, int) and s >= 0 for s in slopes)
                 and slopes == sorted(slopes, reverse=True),
                 f"{where}: slopes not nonincreasing nonnegative integers")
        _require(min(widths, default=1) > 0
                 and sum(widths) == Fraction(rho["domain_upper"]),
                 f"{where}: widths do not tile the domain")
        top += sum(s * w for s, w in zip(slopes, widths))
        _require(top <= g, f"{where}: cost slice rises above g")
        if rec["depth"] == horizon:
            _require(top == g and not any(slopes), f"{where}: horizon slice is not g")
        if rec["depth"] == 0:
            _require(Fraction(rho["domain_upper"]) == 1, "root domain is not [0, 1]")
            root_value = top
    _require(root_value == printed,
             f"printed root value {printed} is not the root slice at 1, {root_value}")
    return c, root_value


@_checks_output
def check_roundtrip(table_text: str, read, write) -> None:
    """Reading the table and writing it again gives the same bytes."""
    again = write(read(json.loads(table_text))) + "\n"
    _require(again == table_text, "table changes when read and written again")


@_checks_output
def check_tree(dot: str, tree_text: str, c: int, max_depth: int) -> None:
    """The display cut `tree` exports, as JSON and as DOT."""
    root = json.loads(tree_text)
    _require(root["depth"] == 0 and root["e_enter"] == c,
             f"root label {root['e_enter']} is not c = {c}")
    n_nodes = 0
    stack = [root]
    while stack:
        node = stack.pop()
        n_nodes += 1
        where = f"node at counts {node['counts']}"
        _require(node["depth"] <= max_depth, f"{where}: deeper than {max_depth}")
        p = Fraction(node["p_continue"])
        e_cont = node["e_continue"]
        if e_cont is None:
            _require(p == 0 and not node["children"], f"{where}: stop node continues")
        else:
            _require(p == Fraction(node["e_enter"], e_cont),
                     f"{where}: p_continue is not e_enter/e_continue")
        lfd = [Fraction(q) for q in node["lfd"] or ()]
        _require(not lfd or (min(lfd) >= 0 and sum(lfd) == 1),
                 f"{where}: LFD is not a PMF")
        for q, child in zip(lfd, node["children"] or ()):
            _require(child["depth"] == node["depth"] + 1, f"{where}: child depth")
            if q > 0:
                _require(child["e_enter"] == e_cont - 1,
                         f"{where}: a weighted child is not promised e_continue - 1")
            stack.append(child)
    dot_nodes = len(re.findall(r"^  n\d+ \[label=", dot, re.M))
    dot_edges = len(re.findall(r"^  n\d+ -> n\d+ ", dot, re.M))
    _require(dot_nodes == n_nodes and dot_edges == n_nodes - 1,
             f"DOT has {dot_nodes} nodes and {dot_edges} edges, JSON {n_nodes} nodes")


@_checks_output
def check_eval(model: Model, report_text: str, c: int, root_value: Fraction
               ) -> tuple[list[tuple[int, Fraction]], Fraction]:
    """`eval`'s report under the default probes P1, P2 and uniform.

    Equalization (E[tau] = c for every probe), the mirror law (alpha1 =
    alpha2; every workload model is mirror-symmetric), the cost identity
    c + lam1 alpha1 + lam2 alpha2 = root slice at 1, and stop-time PMFs that
    sum to 1 with mean E[tau].  Returns the uniform probe's stop-time PMF
    and the average error (alpha1 + alpha2) / 2.
    """
    report = json.loads(report_text)
    a1, a2 = Fraction(report["alpha1"]), Fraction(report["alpha2"])
    _require(a1 == a2, f"mirror law: alpha1 {a1} != alpha2 {a2}")
    _require(c + model.lam1 * a1 + model.lam2 * a2 == root_value,
             "cost identity c + lam1 alpha1 + lam2 alpha2 != root value")
    probes = [tuple(Fraction(v) for v in p["probe"]) for p in report["probes"]]
    _require(probes == [model.p1, model.p2, model.uniform],
             "probes are not P1, P2, uniform")
    for entry, probe in zip(report["probes"], probes):
        e_tau = Fraction(entry["expected_sample_size"])
        _require(e_tau == c, f"probe {probe}: E[tau] {e_tau} != c = {c}")
        pmf = [(n, Fraction(q)) for n, q in entry["stop_time_pmf"]]
        _require(all(0 <= n <= model.horizon and q >= 0 for n, q in pmf)
                 and sum(q for _, q in pmf) == 1,
                 f"probe {probe}: stop-time PMF is not a PMF on 0..horizon")
        _require(sum(n * q for n, q in pmf) == e_tau,
                 f"probe {probe}: stop-time PMF mean != E[tau]")
    return ([(n, Fraction(q)) for n, q in report["probes"][2]["stop_time_pmf"]],
            (a1 + a2) / 2)


@_checks_output
def check_verify(rc: int, stdout: str, c: int) -> None:
    """`verify` passes, certifies the c that `design` printed, and its worst
    path expectation is c (equalization: no path exceeds c, weighted ones
    reach it)."""
    _require(rc == 0 and re.search(r"^verification: PASS$", stdout, re.M)
             is not None, f"verify exited {rc} without PASS")
    got_c = int(_search(r"c = (\d+)$", stdout, "c").group(1))
    worst = Fraction(_search(r"^max path expectation: (\S+)$", stdout,
                             "max path expectation").group(1))
    _require(got_c == c, f"verify certifies c = {got_c}, design printed {c}")
    _require(worst == c, f"max path expectation {worst} != c = {c}")


@_checks_output
def check_simulate(stdout: str, pmf: list[tuple[int, Fraction]], trials: int,
                   seed: int, horizon: int) -> None:
    """The seeded mean lies within 5 standard errors of E[tau], with mean and
    variance taken from the exact stop-time PMF under the same probe."""
    head = _search(r"^trials: (\d+)  seed: (-?\d+)", stdout, "trials line")
    _require((int(head.group(1)), int(head.group(2))) == (trials, seed),
             "simulate echoes other trials or seed")
    mean = Fraction(_search(r"^mean sample size: (\S+) ", stdout, "mean").group(1))
    longest = int(_search(r"^max sample size: (\d+)$", stdout, "max").group(1))
    h1 = Fraction(_search(r"^H1 frequency: (\S+)$", stdout, "H1").group(1))
    h2 = Fraction(_search(r"^H2 frequency: (\S+)$", stdout, "H2").group(1))
    _require(longest <= horizon, f"a trial took {longest} samples > horizon")
    _require(h1 + h2 == 1, "decision frequencies do not sum to 1")
    mu = sum(n * q for n, q in pmf)
    var = sum(n * n * q for n, q in pmf) - mu * mu
    _require((mean - mu) ** 2 <= 25 * var / trials,
             f"mean {float(mean)} is more than 5 SE from E[tau] = {mu}")


def _majority_vote_error(model: Model) -> Fraction:
    """Average error of the 3-sample majority vote, by binomial sums."""
    def tail(theta: Fraction, lo: int) -> Fraction:
        return sum(comb(3, s) * theta**s * (1 - theta) ** (3 - s)
                   for s in range(lo, 4))
    t1, t2 = model.p1[1], model.p2[1]
    if t1 < t2:
        t1, t2 = t2, t1
    return (1 - tail(t1, 2) + tail(t2, 2)) / 2


def _close(text: str, value: Fraction) -> bool:
    """A 12-significant-digit rendering agrees with an exact value."""
    return abs(Fraction(text) - value) <= abs(value) * Fraction(1, 10**11)


@_checks_output
def check_compare(model: Model, curves: str, thresholds: str, sweep: str,
                  average_error: Fraction) -> None:
    """`compare`'s three CSVs.

    The SPRT walk with barriers +-A has E[tau] = A^2 at theta = 1/2
    (gambler's ruin); the FSST always takes n samples; both baselines meet
    the 1e-4 error level they were matched to; the sweep covers the odd
    horizons 3..H, its FSST column is the 3-sample majority vote, and at
    an odd H its last row is `eval`'s average error.
    """
    rows = [r.split(",") for r in thresholds.splitlines()]
    _require(rows[0] == ["test_name", "n", "lower", "upper"], "thresholds header")
    sprt = {(int(lo), int(hi)) for name, _, lo, hi in rows[1:] if name == "sprt"}
    _require(len(sprt) == 1, "SPRT thresholds are not constant")
    (lower, upper), = sprt
    _require(lower == -upper and upper >= 0, "SPRT thresholds are not symmetric")
    barrier = upper + 1
    fsst = [(int(n), int(lo), int(hi)) for name, n, lo, hi in rows[1:] if name == "fsst"]
    n_fsst = len(fsst)
    _require(fsst == [(n, -n, n) for n in range(n_fsst)], "FSST rows")

    rows = [r.split(",") for r in curves.splitlines()]
    _require(rows[0] == ["theta", "expected_sample_size", "alpha1", "alpha2",
                         "test_name"], "curves header")
    level = Fraction(1, 10_000)
    half = [r for r in rows[1:] if r[4] == "sprt" and Fraction(r[0]) == Fraction(1, 2)]
    _require(len(half) == 1 and Fraction(half[0][1]) == barrier**2,
             f"SPRT E[tau] at theta = 1/2 is not A^2 = {barrier**2}")
    for theta, e_tau, a1, a2, name in rows[1:]:
        if name == "fsst":
            _require(Fraction(e_tau) == n_fsst, f"FSST E[tau] at {theta} != {n_fsst}")
        if name in ("sprt", "fsst"):
            _require(Fraction(a1) <= level and Fraction(a2) <= level,
                     f"{name} errors at {theta} exceed 1e-4")

    rows = [r.split(",") for r in sweep.splitlines()]
    _require(rows[0] == ["horizon", "average_error", "fsst_average_error"],
             "sweep header")
    _require([int(r[0]) for r in rows[1:]] == list(range(3, model.horizon + 1, 2)),
             "sweep horizons are not 3, 5, ..., H")
    vote = _majority_vote_error(model)
    _require(all(_close(r[2], vote) for r in rows[1:]),
             f"sweep FSST column is not the majority vote error {float(vote)}")
    if model.horizon % 2:
        _require(_close(rows[-1][1], average_error),
                 "sweep at H is not eval's average error")


@_checks_output
def check_rejected(rc: int, stderr: str, written: list[str]) -> None:
    """`compare` on a non-binary alphabet is a usage error that writes nothing."""
    _require(rc == 2 and "binary alphabets" in stderr and not written,
             f"compare on a 3-symbol model exited {rc}, wrote {written}")
