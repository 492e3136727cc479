"""End-to-end benchmark of the `npkw` command line on one workload.

Run from the repository root:

    python3 benchmark/run.py --workload ref15 --seed 1 --seconds 40 --trace 0

Each workload runs in this one single-threaded process.  Every subcommand is
called through `npkw.cli.main` with the flags a user passes, and each call
loads its inputs afresh: the CLI keeps no cache across calls.  The run is
made of whole rounds; a round starts a fresh interpreter (``setup_s``) and
calls every subcommand, a short one several times (see `schedule`).  Rounds
repeat until the next one could end after ``--seconds``.  The host's speed
drifts from second to second, so every call is scaled by a calibration loop
run beside it (see `Clock`), and each time metric is the median of its
operation's scaled calls: seconds at the speed at which the loop takes
``CALIBRATION_S``.  Every output is checked (see `checks.py`); the last line
of standard output is the JSON result.

``--trace 1`` instead calls each subcommand once, with the per-layer timers
of `tracer.py` installed, and reports the per-layer metrics; it prints each
call's scaled time too, for the tracing overhead (see `reference.py`).
``--seed`` is the seed of `npkw simulate`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

import checks

QUANTUM = 0.15      # seconds each operation gets per round, at least one call
LONG_S = 1.0        # an operation slower than this is called every second round
REJECTIONS = 5      # calls of an expected rejection per round
CALIBRATION_S = 0.004   # the calibration loop's time at reference speed
TREE_DEPTH = 7
WORK_DIR = ".bench_work"


@dataclass(frozen=True)
class Workload:
    flags: tuple[str, ...]
    model: checks.Model
    probe: str          # the uniform probe `simulate` samples from
    trials: int

    @property
    def binary(self) -> bool:
        return len(self.model.p1) == 2


def _bernoulli(t1: str, t2: str, lam: int, horizon: int) -> checks.Model:
    a, b = Fraction(t1), Fraction(t2)
    return checks.Model((1 - a, a), (1 - b, b), Fraction(lam), Fraction(lam),
                        horizon)


WORKLOADS = {
    # Horizons are chosen so that every call but `compare` takes well under
    # a second and is timed many times in a run (see README.md).
    # The paper's worked example: extraction dominates eval/verify/simulate.
    "ref15": Workload(
        ("--theta1", "0.8", "--theta2", "0.2", "--lambda", "20", "--horizon", "15"),
        _bernoulli("0.8", "0.2", 20, 15), "1/2,1/2", 2000,
    ),
    # Stops after one sample, yet long-denominator slices and a large table.
    "fast40": Workload(
        ("--theta1", "0.9", "--theta2", "0.1", "--lambda", "3", "--horizon", "40"),
        _bernoulli("0.9", "0.1", 3, 40), "1/2,1/2", 2000,
    ),
    # The one alphabet of three symbols: 3-way merges and splits.
    "tern10": Workload(
        ("--pmf1", "1/2,1/4,1/4", "--pmf2", "1/4,1/4,1/2", "--lambda", "20",
         "--horizon", "10"),
        checks.Model(
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
            Fraction(20), Fraction(20), 10,
        ),
        "1/3,1/3,1/3", 2000,
    ),
}


@dataclass
class Command:
    name: str
    argv: list[str]
    outputs: list[str]
    expect_rc: int = 0
    times: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)  # see `Clock`
    first: tuple | None = None   # (rc, stdout, stderr, output digests)
    mismatched: int = 0          # calls whose outcome differs from the first
    failed: str | None = None    # why every call of this command failed
    check_failed: bool = False


def commands(w: Workload, work: str, seed: int) -> list[Command]:
    table = os.path.join(work, "T.json")
    tree = os.path.join(work, "F")
    report = os.path.join(work, "R.json")
    comp = os.path.join(work, "C")
    return [
        Command("design", ["design", *w.flags, "--out", table], [table]),
        Command("tree", ["tree", "--table", table, "--depth", str(TREE_DEPTH),
                         "--out", tree], [tree + ".dot", tree + ".json"]),
        Command("eval", ["eval", "--table", table, "--out", report], [report]),
        Command("verify", ["verify", "--table", table], []),
        Command("simulate", ["simulate", "--table", table, "--probe", w.probe,
                             "--trials", str(w.trials), "--seed", str(seed)], []),
        # `compare` rejects a 3-symbol alphabet by design: there it times
        # the rejection, which must be exit code 2 and no output
        Command("compare", ["compare", *w.flags, "--out", comp],
                [comp + s for s in ("_curves.csv", "_thresholds.csv", "_sweep.csv")],
                0 if w.binary else 2),
    ]


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        return None


def call(cli, cmd: Command) -> float:
    """One timed call of ``cmd`` through the CLI entry point; return its
    time."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(cmd.argv)
        except SystemExit as exc:  # argparse rejects flags this way
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, not a bench crash
            rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    cmd.times.append(elapsed)
    outcome = (rc, out.getvalue(), err.getvalue(),
               tuple(_digest(p) for p in cmd.outputs))
    if cmd.first is None:
        cmd.first = outcome
        if rc != cmd.expect_rc:
            cmd.failed = f"exit code {rc}: {err.getvalue().strip()}"
    elif outcome != cmd.first:
        cmd.mismatched += 1
    return elapsed


def start_interpreter(src: str, times: list[float]) -> float:
    """One fresh interpreter, timed until `npkw.cli` is imported; return
    its time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    gc.collect()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import npkw.cli"], env=env, check=True)
    times.append(time.perf_counter() - start)
    return times[-1]


def calibration_loop() -> None:
    """Fixed exact-fraction arithmetic, the kind of work that dominates
    `npkw`, sharing no code with it: a sum whose denominators grow to about
    700 bits."""
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(1, i) * Fraction(i + 1, i + 3)


class Clock:
    """Scales each operation's time to reference speed.

    The calibration loop runs before the first batch of calls and after
    each batch; a call's scaled time is its time times ``CALIBRATION_S``
    over the mean of the two loops around its batch.  The host's speed
    drifts by up to 2x within seconds, and the loop beside a call drifts
    with it."""

    def __init__(self) -> None:
        self.last = self._loop()

    @staticmethod
    def _loop() -> float:
        """The median of five runs of the loop, so that one interrupted
        run does not count."""
        gc.collect()
        times = []
        for _ in range(5):
            start = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def run(self, op, calls: int) -> list[float]:
        """Call ``op``, which returns its time, ``calls`` times in a row;
        return the scaled times."""
        times = [op() for _ in range(calls)]
        after = self._loop()
        factor = CALIBRATION_S * 2 / (self.last + after)
        self.last = after
        return [t * factor for t in times]


def schedule(cli, cmds: list[Command], src: str, seconds: float
             ) -> tuple[list[float], list[float]]:
    """Run whole rounds until the next one could end after ``seconds``;
    return the interpreter start times and their scaled times (see
    `Clock`).  The first round makes one call of each operation.  Later
    rounds repeat each one ``QUANTUM / (its fastest time so far)`` times,
    rounded, at least once; an operation slower than ``LONG_S`` is called
    in every second round only, and an expected rejection ``REJECTIONS``
    times a round."""
    begin = time.perf_counter()
    clock = Clock()
    setup: list[float] = []
    setup_scaled: list[float] = []
    ops = [(setup, setup_scaled, lambda: start_interpreter(src, setup), True)]
    ops += [(c.times, c.scaled, lambda c=c: call(cli, c), c.expect_rc == 0)
            for c in cmds]
    for _, scaled, op, _ in ops:
        scaled += clock.run(op, 1)
    longest = time.perf_counter() - begin
    rounds = 0
    while time.perf_counter() - begin + longest <= seconds:
        start = time.perf_counter()
        rounds += 1
        for times, scaled, op, repeat in ops:
            if not repeat:
                calls = REJECTIONS
            elif min(times) > LONG_S:
                calls = rounds % 2
            else:
                calls = max(1, round(QUANTUM / min(times)))
            if calls:
                scaled += clock.run(op, calls)
        longest = max(longest, time.perf_counter() - start)
    return setup, setup_scaled


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def check_outputs(w: Workload, cmds: dict[str, Command], seed: int,
                  bellman) -> None:
    """Run every output check on each command's first call.  A command
    whose check fails is failed, and so is one whose check needs a fact
    from a command that failed before it."""
    facts: dict = {}
    model = w.model

    def design():
        cmd = cmds["design"]
        text = _read(cmd.outputs[0])
        facts["c"], facts["root"] = checks.check_design(model, cmd.first[1], text)
        checks.check_roundtrip(text, bellman.cost_table_from_json,
                               bellman.cost_table_to_json_str)

    def tree():
        dot, blob = cmds["tree"].outputs
        checks.check_tree(_read(dot), _read(blob), facts["c"], TREE_DEPTH)

    def eval_():
        report = _read(cmds["eval"].outputs[0])
        facts["pmf"], facts["avg"] = checks.check_eval(model, report, facts["c"],
                                                       facts["root"])

    def verify():
        cmd = cmds["verify"]
        checks.check_verify(cmd.first[0], cmd.first[1], facts["c"])

    def simulate():
        checks.check_simulate(cmds["simulate"].first[1], facts["pmf"], w.trials,
                              seed, model.horizon)

    def compare():
        cmd = cmds["compare"]
        if not w.binary:
            written = [p for p in cmd.outputs if os.path.exists(p)]
            checks.check_rejected(cmd.first[0], cmd.first[2], written)
            return
        curves, thresholds, sweep = (_read(p) for p in cmd.outputs)
        checks.check_compare(model, curves, thresholds, sweep, facts["avg"])

    steps = (("design", design, ()), ("tree", tree, ("c",)),
             ("eval", eval_, ("c", "root")), ("verify", verify, ("c",)),
             ("simulate", simulate, ("pmf",)),
             ("compare", compare, ("avg",) if w.binary else ()))
    for name, check, needs in steps:
        cmd = cmds[name]
        if cmd.failed is not None:
            continue
        missing = [fact for fact in needs if fact not in facts]
        if missing:
            cmd.failed = f"not checked: needs {', '.join(missing)} of a failed command"
            continue
        try:
            check()
        except (checks.CheckError, OSError) as exc:  # OSError: an output is missing
            cmd.failed = f"check failed: {exc}"
            cmd.check_failed = True


def run(workload: str, seed: int, seconds: int, trace: bool, root: str) -> dict:
    w = WORKLOADS[workload]
    src = os.path.join(root, "src")
    metrics: dict = {}
    setup: list[float] = []
    sys.path.insert(0, src)
    import npkw.bellman as bellman
    import npkw.cli as cli

    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(root, WORK_DIR))
    try:
        cmds = {c.name: c for c in commands(w, work, seed)}
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            clock = Clock()
            tracer.install()
            try:
                for cmd in cmds.values():
                    cmd.scaled += clock.run(lambda cmd=cmd: call(cli, cmd), 1)
            finally:
                tracer.remove()
            metrics.update(tracer.report(sum(c.times[0] for c in cmds.values())))
        else:
            setup, setup_scaled = schedule(cli, list(cmds.values()), src, seconds)
            metrics["setup_s"] = {"value": statistics.median(setup_scaled),
                                  "unit": "s"}
            for cmd in cmds.values():
                metrics[f"{cmd.name}_s"] = {"value": statistics.median(cmd.scaled),
                                            "unit": "s"}
            metrics["table_mb"] = {
                "value": os.path.getsize(cmds["design"].outputs[0]) / 1e6,
                "unit": "MB"}
            # read before the checks, so that their memory does not count
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"}
        check_outputs(w, cmds, seed, bellman)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, correct = len(setup), 0, True
    if setup:
        print(f"{workload}/setup: {len(setup)} starts, first {setup[0]:.4f} s, "
              f"best {min(setup):.4f} s, median {statistics.median(setup):.4f} s")
    for cmd in cmds.values():
        attempted += len(cmd.times)
        failed += len(cmd.times) if cmd.failed else cmd.mismatched
        if cmd.failed or cmd.mismatched:
            print(f"FAILED {workload}/{cmd.name}: "
                  f"{cmd.failed or f'{cmd.mismatched} calls changed output'}",
                  file=sys.stderr)
        correct &= not cmd.check_failed
        print(f"{workload}/{cmd.name}: {len(cmd.times)} calls, first "
              f"{cmd.times[0]:.4f} s (scaled {cmd.scaled[0]:.4f} s), best "
              f"{min(cmd.times):.4f} s, median {statistics.median(cmd.times):.4f} s")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "npkw", "cli.py")):
        print("error: run from the repository root; src/npkw/cli.py not found",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
