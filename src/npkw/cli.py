"""Command-line front end.

Subcommands: ``design`` (backward recursion, cost-table JSON), ``tree``
(policy export as DOT + JSON), ``eval`` (exact per-probe performance),
``compare`` (baseline curves/thresholds and the horizon sweep as CSV),
``verify`` (equalization + support certificates, exit code 0/1), and
``simulate`` (seeded Monte Carlo).

Every numeric flag is parsed as an exact rational — ``0.8`` means 4/5,
never a binary float.  All outputs are deterministic given the flags (plus
``--seed`` for simulate); files are written atomically via temp + rename.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .baselines import (
    FsstDesign,
    KwtDesign,
    SprtDesignReport,
    curves_to_csv,
    fsst_analyze,
    fsst_design,
    kwt_analyze,  # unused here; benchmark/tracer.py times it by this name
    kwt_design,
    kwt_matched,
    sample_size_curve,
    sprt_design,
    _sig12,
)
from .bellman import (
    CostTable,
    NominalModel,
    backward_recursion,
    bernoulli_model,
    cost_table_from_json,
    cost_table_to_json_str,
    horizon_roots,
    make_model,
)
from .policy import (
    ExtractionError,
    evaluate,
    extract_tree,
    simulate,
    tree_to_dot,
    tree_to_json,
    verify_equalization,
    verify_lfd_support,
)
from .pwl import pwl_eval, slope_left, slope_right

__all__ = ["RunConfig", "main", "build_parser"]


class UsageError(Exception):
    """Bad flags or invalid input files: exit code 2."""


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _pmf(text: str) -> tuple[Fraction, ...]:
    vals = tuple(_rat(part) for part in text.split(","))
    if any(v < 0 for v in vals) or sum(vals) != 1:
        raise UsageError(f"not a probability vector: {text!r}")
    return vals


def _grid(text: str) -> list[Fraction]:
    """Either ``a,b,c`` (explicit points) or ``lo:hi:count`` (even spacing)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("grid range must be lo:hi:count")
        lo, hi = _rat(parts[0]), _rat(parts[1])
        try:
            count = int(parts[2])
        except ValueError as exc:
            raise UsageError("grid count must be an integer") from exc
        if count < 1:
            raise UsageError("grid count must be >= 1")
        if count == 1:
            points = [lo]
        else:
            step = (hi - lo) / (count - 1)
            points = [lo + step * i for i in range(count)]
    else:
        points = [_rat(p) for p in text.split(",")]
    for p in points:
        if not 0 < p < 1:
            raise UsageError("grid points must lie strictly inside (0, 1)")
    return points


@dataclass
class RunConfig:
    """Validated command inputs: the model (or a cost-table path) plus the
    command-specific options."""

    model: Optional[NominalModel]
    table_path: Optional[str]
    out: Optional[str]
    depth: Optional[int]
    probes: Optional[list[tuple[Fraction, ...]]]
    grid: Optional[list[Fraction]]
    seed: int
    trials: int
    strategy: str


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    model = None
    table_path = getattr(args, "table", None)
    has_thetas = args.theta1 is not None or args.theta2 is not None
    has_pmfs = getattr(args, "pmf1", None) is not None or \
        getattr(args, "pmf2", None) is not None
    if has_thetas and has_pmfs:
        raise UsageError("give either --theta1/--theta2 or --pmf1/--pmf2")
    if has_thetas or has_pmfs:
        lam1 = args.lambda1 if args.lambda1 is not None else args.lam
        lam2 = args.lambda2 if args.lambda2 is not None else args.lam
        if lam1 is None or lam2 is None:
            raise UsageError("model flags need --lambda (or --lambda1/--lambda2)")
        lam1, lam2 = _rat(lam1), _rat(lam2)
        if lam1 <= 0 or lam2 <= 0:
            raise UsageError("lambda must be positive")
        if args.horizon is None:
            raise UsageError("model flags need --horizon")
        if args.horizon < 1:
            raise UsageError("horizon must be at least 1")
        try:
            if has_thetas:
                if args.theta1 is None or args.theta2 is None:
                    raise UsageError("need both --theta1 and --theta2")
                t1, t2 = _rat(args.theta1), _rat(args.theta2)
                if not (0 < t1 < 1 and 0 < t2 < 1):
                    raise UsageError("theta must lie strictly inside (0, 1)")
                model = bernoulli_model(
                    t1, t2, lam1=lam1, lam2=lam2, horizon=args.horizon
                )
            else:
                if args.pmf1 is None or args.pmf2 is None:
                    raise UsageError("need both --pmf1 and --pmf2")
                model = make_model(
                    list(_pmf(args.pmf1)), list(_pmf(args.pmf2)),
                    lam1=lam1, lam2=lam2, horizon=args.horizon,
                )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    probes = None
    if getattr(args, "probe", None):
        probes = [_pmf(p) for p in args.probe]
    grid = _grid(args.grid) if getattr(args, "grid", None) else None
    trials = getattr(args, "trials", 1000)
    if trials < 1:
        raise UsageError("trials must be at least 1")
    out = getattr(args, "out", None)
    # every output lands beside the --out path (`tree` and `compare` add
    # suffixes), so a missing directory or an output path that is a
    # directory fails here rather than after a solve
    if out:
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise UsageError(f"no such directory: {os.path.dirname(out)}")
        for path in _out_paths(args.command, out):
            if os.path.isdir(path):
                raise UsageError(f"--out names a directory: {path}")
    return RunConfig(
        model=model,
        table_path=table_path,
        out=out,
        depth=getattr(args, "depth", None),
        probes=probes,
        grid=grid,
        seed=getattr(args, "seed", 0) or 0,
        trials=trials,
        strategy=getattr(args, "strategy", "fixed") or "fixed",
    )


def _out_paths(command: str, out: str) -> list[str]:
    """The files a command writes for ``--out out``: `tree` writes a .dot
    and a .json beside one base (a trailing .dot is dropped from it), and
    `compare` three CSV tables."""
    if command == "tree":
        base = out[:-4] if out.endswith(".dot") else out
        return [base + ".dot", base + ".json"]
    if command == "compare":
        return [f"{out}_{table}.csv"
                for table in ("curves", "thresholds", "sweep")]
    return [out]


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".npkw-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp makes the file private (0600); give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_table(cfg: RunConfig) -> CostTable:
    if cfg.table_path is not None:
        try:
            with open(cfg.table_path) as handle:
                return cost_table_from_json(json.load(handle))
        except FileNotFoundError as exc:
            raise UsageError(f"no such cost table: {cfg.table_path}") from exc
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ExtractionError(
                f"cost table {cfg.table_path!r} is corrupt: {exc}"
            ) from exc
    if cfg.model is None:
        raise UsageError("need --table or model flags")
    return backward_recursion(cfg.model)


def _frac(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _check_probe_lengths(probes: Optional[list[tuple[Fraction, ...]]],
                         k: int) -> None:
    """Every probe must be a PMF over the model's k symbols; checked after
    the table is loaded and before the tree is extracted."""
    for probe in probes or ():
        if len(probe) != k:
            raise UsageError(
                f"probe {','.join(_frac(v) for v in probe)} has {len(probe)} "
                f"entries, but the model's alphabet has {k} symbols"
            )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_design(cfg: RunConfig) -> int:
    if cfg.model is None:
        raise UsageError("design needs model flags (no --table input)")
    table = backward_recursion(cfg.model)
    root = table.rho[(0,) * cfg.model.alphabet_size]
    value = pwl_eval(root, 1)
    print(f"horizon: {cfg.model.horizon}  alphabet: {cfg.model.alphabet_size}")
    print(f"root value at z0 = 1: {_frac(value)} ~= {_sig12(value)}")
    print(
        "expected sample size at the saddle "
        f"(root slope at z0 = 1): {slope_right(root, 1)}"
    )
    print(f"root slope at z0 = 0: {slope_right(root, 0)}")
    out = cfg.out or "cost_table.json"
    _write_atomic(out, cost_table_to_json_str(table) + "\n")
    print(f"cost table written: {out}")
    return 0


def cmd_tree(cfg: RunConfig) -> int:
    table = _load_table(cfg)
    depth = cfg.depth if cfg.depth is not None else 7
    if depth < 1:
        raise UsageError("depth must be at least 1")
    root = extract_tree(table, max_depth=depth)
    dot = tree_to_dot(root)
    blob = tree_to_json(root) + "\n"
    if cfg.out:
        dot_path, json_path = _out_paths("tree", cfg.out)
        _write_atomic(dot_path, dot)
        _write_atomic(json_path, blob)
        print(f"policy tree written: {dot_path} {json_path}")
    else:
        sys.stdout.write(dot)
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    table = _load_table(cfg)
    model = table.model
    k = model.alphabet_size
    _check_probe_lengths(cfg.probes, k)
    root = extract_tree(table)
    probes = cfg.probes or [
        tuple(model.p1), tuple(model.p2),
        tuple(Fraction(1, k) for _ in range(k)),
    ]
    reports = [evaluate(root, list(p)) for p in probes]

    a1, a2 = reports[0].alpha1, reports[0].alpha2
    avg = (a1 + a2) / 2
    print(f"alpha1 = {_frac(a1)} ~= {_sig12(a1)}")
    print(f"alpha2 = {_frac(a2)} ~= {_sig12(a2)}")
    print(f"average error ~= {_sig12(avg)}")
    print("probe | E[tau] | E[tau] ~=")
    for rep in reports:
        probe_txt = ",".join(_frac(v) for v in rep.probe)
        e = rep.expected_sample_size
        print(f"{probe_txt} | {_frac(e)} | {_sig12(e)}")

    if cfg.out:
        payload = {
            "alpha1": _frac(a1),
            "alpha2": _frac(a2),
            "probes": [
                {
                    "probe": [_frac(v) for v in rep.probe],
                    "expected_sample_size": _frac(rep.expected_sample_size),
                    "stop_time_pmf": [
                        [n, _frac(q)] for n, q in rep.stop_time_pmf
                    ],
                }
                for rep in reports
            ],
        }
        _write_atomic(cfg.out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
        print(f"evaluation report written: {cfg.out}")
    return 0


def _threshold_rows(sprt: SprtDesignReport, fsst: FsstDesign,
                    kwt: KwtDesign) -> list[str]:
    """Continue-region bounds per sample count for the three baselines,
    matched to the strictest published error level (1e-4)."""
    rows = ["test_name,n,lower,upper"]
    horizon = max(kwt.truncation_level, fsst.n)
    for n in range(horizon):
        rows.append(f"sprt,{n},{sprt.design.lower + 1},{sprt.design.upper - 1}")
    for n, lo, hi in kwt.continue_bounds:
        rows.append(f"kwt,{n},{lo},{hi}")
    for n in range(fsst.n):
        rows.append(f"fsst,{n},{-n},{n}")
    return rows


def _sweep_rows(model: NominalModel) -> list[str]:
    """Average error of the adversarially-robust design as the horizon
    grows through odd values, against the three-sample majority vote."""
    fsst_err = sum(fsst_analyze(FsstDesign(3, 2), model), Fraction(0)) / 2
    rows = ["horizon,average_error,fsst_average_error"]
    roots = horizon_roots(model, range(3, model.horizon + 1, 2))
    for n, root in roots.items():
        # minimax cost = E + lam1 a1 + lam2 a2 and the saddle expected
        # sample size is the root slope at z0 = 1, so the equal-lambda
        # average error falls out of the root slice alone
        avg = (pwl_eval(root, 1) - slope_right(root, 1)) / (2 * model.lam1)
        rows.append(f"{n},{_sig12(avg)},{_sig12(fsst_err)}")
    return rows


def cmd_compare(cfg: RunConfig) -> int:
    if cfg.model is None:
        raise UsageError("compare needs model flags")
    model = cfg.model
    if model.alphabet_size != 2:
        raise UsageError("compare baselines are defined for binary alphabets")
    if model.lam1 != model.lam2:
        raise UsageError("horizon sweep needs lambda1 == lambda2")
    if model.horizon < 3:
        raise UsageError("horizon sweep needs --horizon >= 3")
    grid = cfg.grid or [Fraction(i, 20) for i in range(1, 20)]

    sprt = sprt_design(model, Fraction(1, 10_000))
    fsst = fsst_design(model, Fraction(1, 10_000))
    try:
        matched, _ = kwt_matched(model, sprt.alpha1, sprt.alpha2)
    except ValueError as exc:
        raise UsageError(f"cannot match the SPRT's errors: {exc}") from exc
    kwt = kwt_design(model, (Fraction(1, 2), Fraction(1, 2)))
    curves = curves_to_csv(
        sample_size_curve(sprt.design, model, grid)
        + sample_size_curve(fsst, model, grid)
        + sample_size_curve(kwt, model, grid)
    )
    tables = (  # in the order of _out_paths("compare", ...)
        curves,
        "\n".join(_threshold_rows(sprt, fsst, matched)) + "\n",
        "\n".join(_sweep_rows(model)) + "\n",
    )

    if cfg.out:
        names = _out_paths("compare", cfg.out)
        for path, text in zip(names, tables):
            _write_atomic(path, text)
        print("comparison tables written: " + " ".join(names))
    else:
        for text in tables:
            print(text)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    table = _load_table(cfg)
    root = extract_tree(table)
    cert = verify_equalization(root)
    support = verify_lfd_support(root, table.model)
    print(f"equalized expected sample size: c = {cert.c_root}")
    print(f"max path expectation: {_frac(cert.max_path_expectation)}")
    print(
        f"paths: {cert.n_paths} total, "
        f"{cert.n_q0_positive_paths} with positive adversary mass"
    )
    print(f"mutual support: {','.join(map(str, support.mutual_support))}")
    if cert.passes and support.passes:
        print("verification: PASS")
        return 0
    print("verification: FAIL")
    for path, expectation in cert.violating_paths:
        txt = "".join(map(str, path))
        print(f"  unequalized path {txt or '(root)'}: {_frac(expectation)}")
    for path in support.offending:
        print(f"  support violation at {''.join(map(str, path)) or '(root)'}")
    return 1


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.probes and len(cfg.probes) > 1:
        raise UsageError("simulate takes at most one --probe")
    if cfg.probes and cfg.strategy != "fixed":
        raise UsageError(
            f"--probe sets the data PMF of the fixed strategy; the "
            f"{cfg.strategy} strategy takes none"
        )
    table = _load_table(cfg)
    k = table.model.alphabet_size
    _check_probe_lengths(cfg.probes, k)
    root = extract_tree(table)
    if cfg.probes:
        pmf: Optional[list] = list(cfg.probes[0])
    elif cfg.strategy == "fixed":
        pmf = [Fraction(1, k) for _ in range(k)]
    else:
        pmf = None
    try:
        rep = simulate(
            root, trials=cfg.trials, seed=cfg.seed,
            strategy=cfg.strategy, pmf=pmf,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"trials: {rep.trials}  seed: {rep.seed}  strategy: {rep.strategy}")
    print(
        f"mean sample size: {_frac(rep.mean_sample_size)} "
        f"~= {_sig12(rep.mean_sample_size)}"
    )
    print(f"max sample size: {rep.max_sample_size}")
    print(f"H1 frequency: {_frac(rep.freq_h1)}")
    print(f"H2 frequency: {_frac(rep.freq_h2)}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--theta1", help="success probability under H1")
    shared.add_argument("--theta2", help="success probability under H2")
    shared.add_argument("--pmf1", help="comma-separated PMF under H1")
    shared.add_argument("--pmf2", help="comma-separated PMF under H2")
    shared.add_argument("--lambda1", help="false H2 decision penalty")
    shared.add_argument("--lambda2", help="false H1 decision penalty")
    shared.add_argument(
        "--lambda", dest="lam", help="sets both penalties at once"
    )
    shared.add_argument("--horizon", type=int, help="maximum sample count")
    shared.add_argument("--table", help="cost-table JSON from `design`")

    parser = argparse.ArgumentParser(
        prog="npkw",
        description="exact sequential-test design against adversarial data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", parents=[shared],
                       help="run the backward recursion, save the cost table")
    p.add_argument("--out", help="output JSON path (default cost_table.json)")

    p = sub.add_parser("tree", parents=[shared],
                       help="export the decision tree as DOT + JSON")
    p.add_argument("--depth", type=int, help="levels to export (default 7)")
    p.add_argument("--out", help="output base path (writes .dot and .json)")

    p = sub.add_parser("eval", parents=[shared],
                       help="exact E[tau], errors, stopping-time PMF")
    p.add_argument("--probe", action="append",
                   help="probe PMF, comma separated (repeatable)")
    p.add_argument("--out", help="JSON report path")

    p = sub.add_parser("compare", parents=[shared],
                       help="baseline curves, thresholds, horizon sweep")
    p.add_argument("--grid", help="theta grid: a,b,c or lo:hi:count")
    p.add_argument("--out", help="CSV base path (writes three tables)")

    sub.add_parser("verify", parents=[shared],
                   help="check equalization + support certificates")

    p = sub.add_parser("simulate", parents=[shared],
                       help="seeded Monte Carlo rollouts of the policy")
    p.add_argument("--probe", action="append",
                   help="data-generating PMF for the fixed strategy (once)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", default="fixed",
                   choices=("fixed", "alternating", "lfd"))
    return parser


_DISPATCH = {
    "design": cmd_design,
    "tree": cmd_tree,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _DISPATCH[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExtractionError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
