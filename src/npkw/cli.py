"""Command-line front end.

Subcommands: ``design`` (backward recursion, cost-table JSON), ``tree``
(policy export as DOT + JSON), ``eval`` (exact per-probe performance),
``compare`` (baseline curves/thresholds and the horizon sweep as CSV),
``verify`` (equalization + support certificates, exit code 0/1), and
``simulate`` (seeded Monte Carlo).  Beyond ``pwl`` and ``bellman``, the
four policy commands load ``policy`` and ``compare`` loads ``baselines``;
``design`` loads neither.

``design`` and ``compare`` take the model as flags; the other four take
flags or a ``--table`` from ``design``, never both.  Every input is checked
before any solve, and every numeric flag is parsed as an exact rational —
``0.8`` means 4/5, never a binary float.  All outputs are deterministic
given the flags (plus ``--seed`` for simulate); files are written
atomically via temp + rename.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import Optional, Sequence

from .bellman import (
    CostTable,
    ExtractionError,
    NominalModel,
    backward_recursion,
    bernoulli_model,
    cost_table_from_json,
    cost_table_to_json_str,
    horizon_roots,
    make_model,
    model_from_json,
)
from .pwl import decimal_str, pwl_eval, slope_right

# Names of the modules that only some subcommands run, bound into this
# module's globals when `main` picks such a subcommand, or on the first
# lookup of one from outside (`npkw.cli.extract_tree`).  The subcommands
# call them by these bare names, so a wrapper set on `npkw.cli` is what
# they call.
_LAZY = {
    "policy": ("evaluate", "extract_tree", "simulate", "tree_to_dot",
               "tree_to_json", "verify_equalization", "verify_lfd_support"),
    "baselines": ("FsstDesign", "KwtDesign", "SprtDesignReport",
                  "curves_to_csv", "fsst_analyze", "fsst_design",
                  "kwt_analyze", "kwt_design", "kwt_matched",
                  "sample_size_curve", "sprt_design"),
}


def _bind(module: str) -> None:
    """Import ``npkw.<module>`` and bind its `_LAZY` names here; a name
    already set (a wrapper put on this module) is kept."""
    loaded = importlib.import_module(f"{__package__}.{module}")
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["main", "build_parser"]


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


_MODEL_FLAGS = ("theta1", "theta2", "pmf1", "pmf2", "lambda", "lambda1",
                "lambda2", "horizon")


def _check(args: argparse.Namespace) -> tuple[NominalModel, Optional[dict]]:
    """Check every input before any work.  Return the model, from the model
    flags or from the header of the ``--table`` file, and that file parsed
    (None for model flags); the ``--probe`` and ``--grid`` texts are
    replaced by their exact values."""
    given = [name for name in _MODEL_FLAGS if getattr(args, name) is not None]
    data = None
    if getattr(args, "table", None) is not None:
        if given:
            raise UsageError("--table states the model; drop "
                             + ", ".join("--" + name for name in given))
        model, data = _read_header(args.table)
    else:
        model = _model_from_flags(args, given)
    command, k = args.command, model.alphabet_size
    if command == "tree" and args.depth < 1:
        raise UsageError("depth must be at least 1")
    if command == "simulate":
        if args.trials < 1:
            raise UsageError("trials must be at least 1")
        if args.probe and len(args.probe) > 1:
            raise UsageError("simulate takes at most one --probe")
        if args.probe and args.strategy != "fixed":
            raise UsageError(f"--probe sets the data PMF of the fixed strategy; "
                             f"the {args.strategy} strategy takes none")
    if "probe" in args:
        args.probe = [_pmf(p) for p in args.probe or ()]
        for probe in args.probe:
            if len(probe) != k:
                raise UsageError(
                    f"probe {','.join(map(_frac, probe))} has {len(probe)} "
                    f"entries, but the model's alphabet has {k} symbols")
    if command == "compare":
        if k != 2:
            raise UsageError("compare baselines are defined for binary alphabets")
        t1, t2 = model.p1[1], model.p2[1]
        if not 0 < t2 < Fraction(1, 2) < t1 < 1:
            # the SPRT and FSST thresholds are symmetric in T_n
            raise UsageError(
                f"compare needs 0 < theta2 < 1/2 < theta1 < 1, got theta1 = "
                f"{_frac(t1)} and theta2 = {_frac(t2)}")
        if model.lam1 != model.lam2:
            raise UsageError("horizon sweep needs lambda1 == lambda2")
        if model.horizon < 3:
            raise UsageError("horizon sweep needs --horizon >= 3")
        args.grid = _grid(args.grid)
    out = getattr(args, "out", None)
    # every output lands beside the --out path (`tree` and `compare` add
    # suffixes), so a missing directory or an output path that is a
    # directory fails here rather than after a solve
    if out is not None:
        if not out:
            raise UsageError("--out is empty")
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise UsageError(f"no such directory: {os.path.dirname(out)}")
        for path in _out_paths(command, out):
            if os.path.isdir(path):
                raise UsageError(f"--out names a directory: {path}")
    return model, data


def _model_from_flags(args: argparse.Namespace,
                      given: list[str]) -> NominalModel:
    if "lambda" in given and ("lambda1" in given or "lambda2" in given):
        raise UsageError("give either --lambda or --lambda1/--lambda2")
    has_thetas = "theta1" in given or "theta2" in given
    has_pmfs = "pmf1" in given or "pmf2" in given
    if has_thetas and has_pmfs:
        raise UsageError("give either --theta1/--theta2 or --pmf1/--pmf2")
    if not (has_thetas or has_pmfs):
        raise UsageError("need --theta1/--theta2 or --pmf1/--pmf2"
                         + (" or --table" if "table" in args else ""))
    lam = getattr(args, "lambda")
    lam1, lam2 = (args.lambda1, args.lambda2) if lam is None else (lam, lam)
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
            return bernoulli_model(t1, t2, lam1=lam1, lam2=lam2,
                                   horizon=args.horizon)
        if args.pmf1 is None or args.pmf2 is None:
            raise UsageError("need both --pmf1 and --pmf2")
        return make_model(list(_pmf(args.pmf1)), list(_pmf(args.pmf2)),
                          lam1=lam1, lam2=lam2, horizon=args.horizon)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _corrupt(path: str, exc: Exception) -> ExtractionError:
    return ExtractionError(f"cost table {path!r} is corrupt: {exc}")


def _read_header(path: str) -> tuple[NominalModel, dict]:
    """The model a cost table states in its header, and the table parsed."""
    try:
        with open(path) as handle:
            data = json.load(handle)
        return model_from_json(data["model"]), data
    except FileNotFoundError as exc:
        raise UsageError(f"no such cost table: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read cost table {path}: {exc.strerror}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise _corrupt(path, exc) from exc


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


def _load_table(args: argparse.Namespace, model: NominalModel,
                data: Optional[dict]) -> CostTable:
    """The solved design: the recursion on the model, or the ``--table``
    file, whose reader solves the model in its header again."""
    if data is None:
        return backward_recursion(model)
    try:
        return cost_table_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _corrupt(args.table, exc) from exc


def _frac(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_design(args: argparse.Namespace, table: CostTable) -> int:
    model = table.model
    root = table.rho[(0,) * model.alphabet_size]
    value = pwl_eval(root, 1)
    print(f"horizon: {model.horizon}  alphabet: {model.alphabet_size}")
    print(f"root value at z0 = 1: {_frac(value)} ~= {decimal_str(value)}")
    print(
        "expected sample size at the saddle "
        f"(root slope at z0 = 1): {slope_right(root, 1)}"
    )
    print(f"root slope at z0 = 0: {slope_right(root, 0)}")
    _write_atomic(args.out, cost_table_to_json_str(table) + "\n")
    print(f"cost table written: {args.out}")
    return 0


def cmd_tree(args: argparse.Namespace, table: CostTable) -> int:
    root = extract_tree(table, max_depth=args.depth)
    dot = tree_to_dot(root)
    blob = tree_to_json(root) + "\n"
    if args.out:
        dot_path, json_path = _out_paths("tree", args.out)
        _write_atomic(dot_path, dot)
        _write_atomic(json_path, blob)
        print(f"policy tree written: {dot_path} {json_path}")
    else:
        sys.stdout.write(dot)
    return 0


def cmd_eval(args: argparse.Namespace, table: CostTable) -> int:
    root = extract_tree(table)
    model = table.model
    k = model.alphabet_size
    probes = args.probe or [
        tuple(model.p1), tuple(model.p2),
        tuple(Fraction(1, k) for _ in range(k)),
    ]
    reports = [evaluate(root, list(p)) for p in probes]

    a1, a2 = reports[0].alpha1, reports[0].alpha2
    avg = (a1 + a2) / 2
    print(f"alpha1 = {_frac(a1)} ~= {decimal_str(a1)}")
    print(f"alpha2 = {_frac(a2)} ~= {decimal_str(a2)}")
    print(f"average error ~= {decimal_str(avg)}")
    print("probe | E[tau] | E[tau] ~=")
    for rep in reports:
        probe_txt = ",".join(_frac(v) for v in rep.probe)
        e = rep.expected_sample_size
        print(f"{probe_txt} | {_frac(e)} | {decimal_str(e)}")

    if args.out:
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
        _write_atomic(args.out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
        print(f"evaluation report written: {args.out}")
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
        rows.append(f"{n},{decimal_str(avg)},{decimal_str(fsst_err)}")
    return rows


def cmd_compare(args: argparse.Namespace, model: NominalModel) -> int:
    sprt = sprt_design(model, Fraction(1, 10_000))
    fsst = fsst_design(model, Fraction(1, 10_000))
    try:
        matched, _ = kwt_matched(model, sprt.alpha1, sprt.alpha2)
    except ValueError as exc:
        raise UsageError(f"cannot match the SPRT's errors: {exc}") from exc
    kwt = kwt_design(model, (Fraction(1, 2), Fraction(1, 2)))
    curves = curves_to_csv(
        sample_size_curve(sprt.design, model, args.grid)
        + sample_size_curve(fsst, model, args.grid)
        + sample_size_curve(kwt, model, args.grid)
    )
    tables = (  # in the order of _out_paths("compare", ...)
        curves,
        "\n".join(_threshold_rows(sprt, fsst, matched)) + "\n",
        "\n".join(_sweep_rows(model)) + "\n",
    )

    if args.out:
        names = _out_paths("compare", args.out)
        for path, text in zip(names, tables):
            _write_atomic(path, text)
        print("comparison tables written: " + " ".join(names))
    else:
        for text in tables:
            print(text)
    return 0


def cmd_verify(args: argparse.Namespace, table: CostTable) -> int:
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


def cmd_simulate(args: argparse.Namespace, table: CostTable) -> int:
    root = extract_tree(table)
    k = table.model.alphabet_size
    if args.probe:
        pmf: Optional[list] = list(args.probe[0])
    elif args.strategy == "fixed":
        pmf = [Fraction(1, k) for _ in range(k)]
    else:
        pmf = None
    try:
        rep = simulate(
            root, trials=args.trials, seed=args.seed,
            strategy=args.strategy, pmf=pmf,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"trials: {rep.trials}  seed: {rep.seed}  strategy: {rep.strategy}")
    print(
        f"mean sample size: {_frac(rep.mean_sample_size)} "
        f"~= {decimal_str(rep.mean_sample_size)}"
    )
    print(f"max sample size: {rep.max_sample_size}")
    print(f"H1 frequency: {_frac(rep.freq_h1)}")
    print(f"H2 frequency: {_frac(rep.freq_h2)}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# each subcommand with its line in `npkw --help`
_COMMANDS = {
    "design": "run the backward recursion, save the cost table",
    "tree": "export the decision tree as DOT + JSON",
    "eval": "exact E[tau], errors, stopping-time PMF",
    "compare": "baseline curves, thresholds, horizon sweep",
    "verify": "check equalization + support certificates",
    "simulate": "seeded Monte Carlo rollouts of the policy",
}


def build_parser(
        commands: Sequence[str] = tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The ``npkw`` parser with the subcommands in ``commands`` registered.
    With all six it lists each with its help line and checks the choice;
    with fewer, the usage and error text still name all six (a metavar),
    and `main` builds only the one its first argument names."""
    parser = argparse.ArgumentParser(
        prog="npkw",
        description="exact sequential-test design against adversarial data",
    )
    every = set(_COMMANDS) <= set(commands)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if every else "{" + ",".join(_COMMANDS) + "}")
    for name, text in _COMMANDS.items():
        if name in commands:
            _add_arguments(sub.add_parser(name, help=text), name)
    return parser


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    p.add_argument("--theta1", help="success probability under H1")
    p.add_argument("--theta2", help="success probability under H2")
    p.add_argument("--pmf1", help="comma-separated PMF under H1")
    p.add_argument("--pmf2", help="comma-separated PMF under H2")
    p.add_argument("--lambda1", help="false H2 decision penalty")
    p.add_argument("--lambda2", help="false H1 decision penalty")
    p.add_argument("--lambda", help="sets both penalties at once")
    p.add_argument("--horizon", type=int, help="maximum sample count")
    if name == "design":
        p.add_argument("--out", default="cost_table.json",
                       help="output JSON path (default cost_table.json)")
    elif name == "tree":
        p.add_argument("--depth", type=int, default=7,
                       help="levels to export (default 7)")
        p.add_argument("--out", help="output base path (writes .dot and .json)")
    elif name == "eval":
        p.add_argument("--probe", action="append",
                       help="probe PMF, comma separated (repeatable)")
        p.add_argument("--out", help="JSON report path")
    elif name == "compare":
        p.add_argument("--grid", default="1/20:19/20:19",
                       help="theta grid: a,b,c or lo:hi:count (default 1/20:19/20:19)")
        p.add_argument("--out", help="CSV base path (writes three tables)")
    elif name == "simulate":
        p.add_argument("--probe", action="append",
                       help="data-generating PMF for the fixed strategy (once)")
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--strategy", default="fixed",
                       choices=("fixed", "alternating", "lfd"))
    # `design` and `compare` take model flags only
    if name not in ("design", "compare"):
        p.add_argument("--table", help="cost-table JSON from `design`")


# the module each subcommand runs beyond `pwl` and `bellman`
_RUNS = {"tree": "policy", "eval": "policy", "verify": "policy",
         "simulate": "policy", "compare": "baselines"}

_DISPATCH = {
    "design": cmd_design,
    "tree": cmd_tree,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse hands the arguments to the subcommand its first positional
    # names.  When that is the first argument, nothing before it can print
    # the list of subcommands (-h) or reject the choice, so only that one is
    # built; otherwise all six are.
    chosen = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    args = build_parser(chosen).parse_args(argv)
    if args.command in _RUNS:
        # compiled before a --table is read, so that the compiler's passing
        # memory is not added to a loaded table's
        _bind(_RUNS[args.command])
    try:
        model, data = _check(args)
        if args.command == "compare":  # the one command that solves no table
            return cmd_compare(args, model)
        return _DISPATCH[args.command](args, _load_table(args, model, data))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExtractionError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
