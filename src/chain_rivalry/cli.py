"""Command-line interface.

Exit codes are part of the contract: 0 success, 1 config/IO/usage error
or out of memory, 2 blockaded (corner) equilibrium, 3 verification
tolerance breach or, from thresholds, a violated subsidy ordering c2_star
< c3_star.

Each command is one subparser, built with its --config and registered with
its handler, a function of the parameters and the parsed arguments; main
loads and validates the config and dispatches through that handler.

sweep and verify are imported inside their commands. Only verify needs
numpy, so the closed-form queries (equilibrium, compare, thresholds) and
sweep never load it, nor dataclasses or inspect either.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import stat
import sys
from collections.abc import Callable, Sequence

from . import closed_form
from .closed_form import CornerEquilibriumError
from .model import (OPTIONAL_FIELDS, REQUIRED_FIELDS, InvalidParamsError,
                    ModelParams, Scenario, require_valid)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CORNER = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the config/usage code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="chain-rivalry",
                     description="Two-period price competition between a "
                                 "dominant and an entrant firm under three "
                                 "platform-choice scenarios.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name: str, run: Callable[[ModelParams, argparse.Namespace], int],
            help: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", required=True,
                        help="path to a JSON parameter file")
        sp.set_defaults(run=run)
        return sp

    sp = add("equilibrium", _cmd_equilibrium,
             "prices, cutoffs, and profits for one scenario")
    sp.add_argument("--scenario", required=True,
                    choices=[sc.value for sc in Scenario])
    add("compare", _cmd_compare,
        "entrant payoffs across the three platform choices")
    add("thresholds", _cmd_thresholds,
        "subsidy and quality levels that flip the platform choice")
    sp = add("sweep", _cmd_sweep, "vary one parameter and tabulate outcomes "
                                  "as CSV (optional SVG chart)")
    sp.add_argument("--param", required=True, choices=REQUIRED_FIELDS + OPTIONAL_FIELDS)
    sp.add_argument("--lo", required=True, type=float)
    sp.add_argument("--hi", required=True, type=float)
    sp.add_argument("--steps", required=True, type=int)
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.add_argument("--svg", help="optional SVG chart path")
    sp = add("verify", _cmd_verify,
             "closed forms vs brute-force solver and user simulator")
    sp.add_argument("--oracle", action="store_true",
                    help="check against the best-response solver only")
    sp.add_argument("--sim", action="store_true",
                    help="check against the user simulator only")
    sp.add_argument("--trials", type=int, default=20,
                    help="number of random parameter draws (default 20)")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--pop", type=int, default=10000,
                    help="simulated population size (default 10000)")
    return parser


def _cmd_equilibrium(params: ModelParams, args: argparse.Namespace) -> int:
    scenario = Scenario.from_name(args.scenario)
    out = closed_form.equilibrium(params, scenario)
    print(f"scenario: {scenario.value}")
    print(f"period-1 prices    pA1 = {out.pA1:.6f}   pB1 = {out.pB1:.6f}")
    print(f"period-2 prices    pA2 = {out.pA2:.6f}   pB2 = {out.pB2:.6f}")
    print(f"cutoffs            period 1 = {out.cutoff1:.6f}   period 2 = {out.cutoff2:.6f}")
    print(f"adoption           nA = {out.nA1:.6f}   nB = {out.nB1:.6f}")
    print(f"profit firm A      period 1 = {out.profitA1:.6f}   "
          f"period 2 = {out.profitA2:.6f}   total = {out.profitA:.6f}")
    print(f"profit firm B      period 1 = {out.profitB1:.6f}   "
          f"period 2 = {out.profitB2:.6f}   total = {out.profitB:.6f}")
    print(f"firm B with subsidy = {out.profitB_with_subsidy:.6f}")
    return EXIT_OK


def _cmd_compare(params: ModelParams, args: argparse.Namespace) -> int:
    decision = closed_form.adoption_decision(params)
    print("firm B payoff by platform:")
    for name, scenario in closed_form.PLATFORMS:
        label = f"{name} ({scenario.value} chain)"
        print(f"  {label:<24} {decision.payoffs[name]:.6f}")
    ordered = decision.rationale
    pieces = [ordered[0][0]]
    for (_, prev), (name, val) in zip(ordered, ordered[1:]):
        pieces.append(">" if prev > val else "=")
        pieces.append(name)
    print("ordering: " + " ".join(pieces))
    print(f"chosen: {decision.chosen}")
    return EXIT_OK


def _cmd_thresholds(params: ModelParams, args: argparse.Namespace) -> int:
    rep = closed_form.subsidy_threshold(params)
    print(f"subsidy thresholds   c2_star = {rep.c2_star:.6f}   "
          f"c3_star = {rep.c3_star:.6f}")
    print(f"quality thresholds   d2_star = {rep.d2_star:.6f}   "
          f"d3_star = {rep.d3_star:.6f}")
    if rep.c3_star > rep.c2_star:
        print("c3_star > c2_star: ok")
        return EXIT_OK
    print("c3_star > c2_star: VIOLATED")
    return EXIT_VERIFY


def _cmd_sweep(params: ModelParams, args: argparse.Namespace) -> int:
    from . import sweep as sweep_mod

    spec = sweep_mod.SweepSpec(param=args.param, lo=args.lo, hi=args.hi,
                               steps=args.steps)
    table = sweep_mod.run_sweep(params, spec)
    # render first and open both outputs before writing either: a sweep
    # with nothing to plot, or an output path that cannot be opened, fails
    # before any file is written. A regular file is written beside itself
    # and replaced only once both outputs are complete, so whatever fails
    # before then (a write, a close, a MemoryError) leaves a file already
    # at either path as it was: the outputs close and the temporary files
    # go before the failure propagates
    chart = sweep_mod.render_profit_svg(table, spec.param) if args.svg else None
    outputs, pending = [], []
    try:
        _open_outputs([(args.out, "")]
                      + ([] if chart is None else [(args.svg, None)]),
                      outputs, pending)
        rows = sweep_mod.write_sweep_csv(table, outputs[0])
        if chart is not None:
            outputs[1].write(chart)
        for fh in outputs:
            fh.close()
        for temporary, target in pending:
            os.replace(temporary, target)
    except BaseException:
        for fh in outputs:
            with contextlib.suppress(OSError):
                fh.close()
        for temporary, _ in pending:
            with contextlib.suppress(OSError):  # a replace may have moved it
                os.remove(temporary)
        raise
    print(f"wrote {rows} rows ({spec.steps} grid points) to {args.out}")
    if chart is not None:
        print(f"wrote chart to {args.svg}")
    return EXIT_OK


def _open_outputs(targets: Sequence[tuple[str, str | None]], outputs: list,
                  pending: list) -> None:
    """Append to outputs a text file open for writing per (path, newline),
    and to pending a (temporary, target) pair per file to move into place.

    A path to a regular file, or to nothing yet, opens a new temporary file
    in its target's directory, symlinks resolved, with the permission bits
    of the file it will replace; the caller moves it over the target with
    os.replace. A device, a pipe or a terminal is written in place. An
    OSError naming the path propagates when it cannot be written, or names
    the same file as an earlier one; the caller then closes outputs and
    removes the pending temporary files.
    """
    files = []  # (path, target, stat or None) of each output bound for a file
    for path, newline in targets:
        try:
            found = os.stat(path)
        except FileNotFoundError:  # nothing yet, or a dangling symlink
            found = None
        if found is not None and not stat.S_ISREG(found.st_mode):
            outputs.append(open(path, "a", encoding="utf-8", newline=newline))
            continue
        target = os.path.realpath(path)
        for earlier, earlier_target, earlier_found in files:
            if target == earlier_target or (
                    found is not None and earlier_found is not None
                    and os.path.samestat(found, earlier_found)):
                raise OSError(f"outputs {earlier} and {path} are one file")
        files.append((path, target, found))
        if found is not None and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        directory, name = os.path.split(target)
        temporary = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:
            exc.filename = path  # the output, not its temporary name
            raise
        pending.append((temporary, target))
        outputs.append(open(fd, "w", encoding="utf-8", newline=newline))
        if found is not None:
            os.chmod(fd, stat.S_IMODE(found.st_mode))


def _cmd_verify(params: ModelParams, args: argparse.Namespace) -> int:
    from . import verify as verify_mod

    use_oracle = args.oracle or not args.sim
    use_sim = args.sim or not args.oracle
    report = verify_mod.run_verification(params, trials=args.trials,
                                         seed=args.seed,
                                         use_oracle=use_oracle,
                                         use_sim=use_sim, m=args.pop)
    print(f"verification: config + {report.trials} draws (seed {report.seed})")
    routes = []
    if report.oracle_used:
        routes.append("oracle")
    if report.sim_used:
        routes.append(f"sim (m={report.m})")
    print("routes: " + ", ".join(routes))
    print(f"{'route':<8}{'scenario':<14}{'quantity':<11}"
          f"{'max_abs':<12}{'max_rel':<12}status")
    for check in report.checks:
        status = "ok" if check.ok else "FAIL"
        print(f"{check.kind:<8}{check.scenario.value:<14}{check.quantity:<11}"
              f"{check.max_abs:<12.3e}{check.max_rel:<12.3e}{status}")
    if report.ok:
        print("PASS: all checks within tolerance")
        return EXIT_OK
    print("breaches:")
    for line in report.failures:
        print(f"  {line}")
    summary = (f"FAIL: {sum(1 for c in report.checks if not c.ok)} "
               f"check(s) outside tolerance")
    if report.oracle_unconverged:
        summary += f", {report.oracle_unconverged} oracle game(s) not converged"
    if report.sim_unconverged:
        summary += f", {report.sim_unconverged} simulator game(s) not converged"
    print(summary)
    return EXIT_VERIFY


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        params = ModelParams.from_json_file(args.config)
        require_valid(params)
        return args.run(params, args)
    except CornerEquilibriumError as exc:
        print(f"error: blockaded equilibrium: {exc}", file=sys.stderr)
        return EXIT_CORNER
    except InvalidParamsError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
