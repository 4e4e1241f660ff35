"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop with one client: the harness takes job i,
runs it, waits for the result, checks it outside the timed region, then
moves on to job i + 1. Jobs depend only on the seed and the index, so a
seed always gives the same inputs; the program receives only generated
configs and seeds.

The checks recompute every expected value with the closed forms captured
below, before the harness patches anything, and compare against the
tolerances the package documents (oracle 1e-4 absolute or 1e-3 relative;
simulator 1/m + 1e-6 on shares, (|p1| + |p2|)/m + 1e-6 on revenues).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chain_rivalry import cli, closed_form, model, sweep, verify
from chain_rivalry.closed_form import BracketError, CornerEquilibriumError
from chain_rivalry.model import ModelParams, Scenario

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = ROOT / "configs" / "reference.json"
WORK_DIR = ROOT / ".bench_out"

# Unpatched entry points for the checks.
_equilibrium = closed_form.equilibrium
_thresholds = closed_form.subsidy_threshold
_adoption = closed_form.adoption_decision
_validate = model.validate_params
_run_verification = verify.run_verification

ORACLE_ABS_TOL = 1e-4
ORACLE_REL_TOL = 1e-3
ORACLE_QUANTITIES = ("pA1", "pB1", "pA2", "pB2", "cutoff1", "cutoff2",
                     "profitA", "profitB")
SIM_QUANTITIES = 8
CLI_TIMEOUT_S = 120


@dataclass
class Checked:
    """Outcome of checking one job: items done, items failed, and any
    output that is wrong (which makes the whole run incorrect)."""

    items: int
    failed: int = 0
    wrong: list[str] = field(default_factory=list)


def load_reference() -> ModelParams:
    params = ModelParams.from_json_file(str(REFERENCE_CONFIG))
    model.require_valid(params)
    return params


def job_rng(seed: int, i: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, i, stream])


def draw_config(rng: np.random.Generator) -> ModelParams:
    """A valid interior parameter set with n3 drawn apart from n2."""
    n1 = float(rng.uniform(2.0, 40.0))
    n2 = float(rng.uniform(0.0, n1))
    n3 = float(rng.uniform(0.0, n1))
    s = float(rng.uniform(1.0, 15.0))
    alpha = float(rng.uniform(0.05, 0.95)) * s / (2.0 * n1 + 1.0)
    bound = 4.0 * s + 4.0 * alpha * (1.0 + n1 + max(n2, n3))
    k = bound * float(rng.uniform(1.05, 2.0))
    p = ModelParams(alpha=alpha, s=s, k=k, n1=n1, n2=n2, n3=n3)
    model.require_valid(p)
    return p


def corner_d(p: ModelParams) -> float:
    """Quality edge beyond which both alternative-chain cutoffs reach 0."""
    u = p.s - p.alpha
    return max(3.0 * u + p.alpha * (p.n1 - p.n2),
               2.5 * u + p.alpha * (p.n1 - p.n3))


def oracle_errors(p: ModelParams, scenario: Scenario, found) -> list[tuple[float, float]]:
    """(|closed - oracle|, tolerance) per quantity."""
    closed = _equilibrium(p, scenario, validate=False)
    pairs = []
    for name in ORACLE_QUANTITIES:
        ref = float(getattr(closed, name))
        err = abs(ref - float(getattr(found, name)))
        pairs.append((err, max(ORACLE_ABS_TOL, ORACLE_REL_TOL * abs(ref))))
    return pairs


def sim_errors(p: ModelParams, scenario: Scenario, m: int, run) -> list[tuple[float, float]]:
    """(|closed - simulated|, tolerance) per quantity."""
    closed = _equilibrium(p, scenario, validate=False)
    share_tol = 1.0 / m + 1e-6
    pairs = (
        (closed.cutoff1, run.period1.cutoff, share_tol),
        (closed.cutoff2, run.period2.cutoff, share_tol),
        (closed.nA1, run.period1.share_a, share_tol),
        (closed.nB1, run.period1.share_b, share_tol),
        (closed.nA2, run.period2.share_a, share_tol),
        (closed.nB2, run.period2.share_b, share_tol),
        (closed.profitA, run.revenue_a,
         (abs(closed.pA1) + abs(closed.pA2)) / m + 1e-6),
        (closed.profitB, run.revenue_b,
         (abs(closed.pB1) + abs(closed.pB2)) / m + 1e-6),
    )
    return [(abs(float(ref) - float(got)), tol) for ref, got, tol in pairs]


class RouteTap:
    """Keeps every oracle and simulator result that `verify` produces, so
    the checks can judge each game, including convergence flags that the
    verification report does not carry."""

    def __init__(self) -> None:
        self.oracle: list = []
        self.sim: list = []

    def patches(self):
        def tap(sink, keep=lambda result: result):
            def factory(fn):
                @functools.wraps(fn)
                def tapped(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    sink.append((args, kwargs, keep(result)))
                    return result
                return tapped
            return factory
        # A simulator run carries its whole user population; keeping only
        # the outcomes holds no more memory than verify itself does.
        return [(verify, "oracle_equilibrium", tap(self.oracle)),
                (verify, "simulate_game",
                 tap(self.sim, lambda run: dataclasses.replace(run, population=None)))]

    def drain(self, tally: dict) -> tuple[list[bool], int]:
        """Judge the tapped games: per game whether it failed, and the total
        number of (game, quantity) checks outside tolerance."""
        games = max(len(self.oracle), len(self.sim))
        failed = [False] * games
        breaches = 0
        for g, (args, _, found) in enumerate(self.oracle):
            errors = oracle_errors(args[0], args[1], found)
            bad = sum(err > tol for err, tol in errors)
            breaches += bad
            failed[g] |= bad > 0 or not found.converged
            tally["oracle.games"] += 1
            tally["oracle.converged"] += bool(found.converged)
            tally["oracle.sweeps"] += found.iterations
            tally["oracle.max_err_to_tol"] = max(
                tally["oracle.max_err_to_tol"], max(err / tol for err, tol in errors))
        for g, (args, kwargs, run) in enumerate(self.sim):
            m = kwargs.get("m", args[3] if len(args) > 3 else 10000)
            errors = sim_errors(args[0], args[1], m, run)
            bad = sum(err > tol for err, tol in errors)
            breaches += bad
            periods = (run.period1, run.period2)
            failed[g] |= bad > 0 or not all(o.converged for o in periods)
            iterations = sum(o.iterations for o in periods)
            tally["sim.games"] += 1
            tally["sim.periods"] += 2
            tally["sim.converged_periods"] += sum(o.converged for o in periods)
            tally["sim.fp_iterations"] += iterations
            tally["sim.type_evals"] += 2 * m * iterations
            tally["sim.max_err_to_tol"] = max(
                tally["sim.max_err_to_tol"], max(err / tol for err, tol in errors))
        self.oracle.clear()
        self.sim.clear()
        return failed, breaches


class Workload:
    name = ""
    jobs_per_s = 1.0  # nominal job rate: an untraced run does seconds x this many jobs
    trace_jobs = 0   # jobs a traced run replays, about five seconds' worth

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tally: dict[str, float] = defaultdict(float)
        self.base = load_reference()

    def patches(self) -> list:
        """Result taps installed for the whole run (traced or not)."""
        return []

    def job(self, i: int):
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def replay(self, job):
        """What the traced run times: the same call, unless the workload
        crosses a process boundary that spans cannot follow."""
        return self.run(job)

    def check(self, job, out) -> Checked:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.check(self.job(0), self.run(self.job(0)))

    def close(self) -> None:
        pass


class VerifyWorkload(Workload):
    """run_verification on the reference config plus seeded draws.

    One job is `verify --trials <trials> --seed <job seed>` in-process: the
    reference config and `trials` draws from the package's own generator,
    three games each.
    """

    name = "verify"
    use_oracle = True
    trials, tiny_trials = 10, 1
    jobs_per_s = 2.9
    trace_jobs = 12

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        if tiny:
            self.trials = self.tiny_trials
        self.m = 500 if tiny else 10000
        self.tap = RouteTap()

    def patches(self) -> list:
        return self.tap.patches()

    def warm_up(self) -> None:
        verify.run_verification(self.base, trials=0, seed=self.seed,
                                use_oracle=self.use_oracle, use_sim=True, m=self.m)
        self.tap.drain(defaultdict(float))

    def job(self, i: int) -> int:
        return int(job_rng(self.seed, i).integers(2**31))

    def run(self, job: int):
        return verify.run_verification(self.base, trials=self.trials, seed=job,
                                       use_oracle=self.use_oracle,
                                       use_sim=True, m=self.m)

    def check(self, job: int, report) -> Checked:
        games = 3 * (self.trials + 1)
        per_game = (len(ORACLE_QUANTITIES) if self.use_oracle else 0) + SIM_QUANTITIES
        failed, breaches = self.tap.drain(self.tally)
        out = Checked(items=games, failed=sum(failed))
        if len(failed) != games:
            out.wrong.append(f"verify seed {job}: {len(failed)} games tapped, "
                             f"expected {games}")
        if len(report.checks) != 3 * per_game:
            out.wrong.append(f"verify seed {job}: {len(report.checks)} check "
                             f"cells, expected {3 * per_game}")
        if len(report.failures) != breaches or report.ok != (breaches == 0):
            out.wrong.append(f"verify seed {job}: report lists "
                             f"{len(report.failures)} breaches (ok={report.ok}), "
                             f"recomputed {breaches}")
        self.tally["verify.checks"] += games * per_game
        return out


class VerifySimWorkload(VerifyWorkload):
    """The same verification with the oracle bypassed, on more draws."""

    name = "verify-sim"
    use_oracle = False
    trials, tiny_trials = 100, 2
    jobs_per_s = 3.5
    trace_jobs = 20


def _fmt(x) -> str:
    return format(float(x), ".9g")


# Spelled out rather than taken from the package, so a changed header shows.
CSV_HEADER = ["param_value", "scenario", "pA1", "pB1", "pA2", "pB2", "cutoff",
              "profitA", "profitB", "chosen", "c2_star", "c3_star", "d2_star",
              "d3_star", "valid"]


def expected_sweep_rows(point: ModelParams, value: float) -> list[tuple[list[str], str]]:
    """The three CSV rows of one grid point, up to the status text: each is
    (first 14 fields, status kind 'ok' | 'corner' | 'invalid')."""
    if not _validate(point).ok:
        return [([_fmt(value), sc.value] + [""] * 12, "invalid") for sc in Scenario]
    outcomes = {}
    for sc in Scenario:
        try:
            outcomes[sc] = _equilibrium(point, sc, validate=False)
        except CornerEquilibriumError:
            outcomes[sc] = None
    try:
        rep = _thresholds(point, validate=False)
        tail = [_fmt(rep.c2_star), _fmt(rep.c3_star), _fmt(rep.d2_star),
                _fmt(rep.d3_star)]
    except BracketError:
        tail = [""] * 4
    interior = all(out is not None for out in outcomes.values())
    chosen = _adoption(point, validate=False).chosen if interior else ""
    rows = []
    for sc, out in outcomes.items():
        body = ([_fmt(out.pA1), _fmt(out.pB1), _fmt(out.pA2), _fmt(out.pB2),
                 _fmt(out.cutoff1), _fmt(out.profitA), _fmt(out.profitB)]
                if out is not None else [""] * 7)
        rows.append(([_fmt(value), sc.value, *body, chosen, *tail],
                     "ok" if out is not None else "corner"))
    return rows


class SweepWorkload(Workload):
    """run_sweep -> write_sweep_csv -> render_profit_svg over long grids.

    Even jobs sweep d from 0 to 1.25x the corner bound, so the tail of the
    grid is blockaded; odd jobs sweep alpha from 0 to 1.5x its validity
    bound, so the first point and the last third are invalid.
    """

    name = "sweep"
    jobs_per_s = 10.0
    trace_jobs = 50
    SAMPLED_POINTS = 8

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.steps = 30 if tiny else 600

    def job(self, i: int) -> tuple[ModelParams, sweep.SweepSpec, int]:
        base = draw_config(job_rng(self.seed, i))
        if i % 2 == 0:
            spec = sweep.SweepSpec("d", 0.0, 1.25 * corner_d(base), self.steps)
        else:
            alpha_max = min(base.s / (2.0 * base.n1 + 1.0),
                            (base.k - 4.0 * base.s) / (4.0 * (1.0 + base.n1 + base.n2)))
            spec = sweep.SweepSpec("alpha", 0.0, 1.5 * alpha_max, self.steps)
        return base, spec, i

    def run(self, job):
        base, spec, _ = job
        records = sweep.run_sweep(base, spec)
        buf = io.StringIO()
        rows = sweep.write_sweep_csv(records, buf)
        svg = sweep.render_profit_svg(records, spec.param)
        return rows, buf.getvalue(), svg

    def check(self, job, out) -> Checked:
        base, spec, i = job
        rows, text, svg = out
        result = Checked(items=spec.steps)
        label = f"sweep {spec.param} job {i}"
        table = list(csv.reader(io.StringIO(text)))
        if rows != 3 * spec.steps or len(table) != 1 + 3 * spec.steps:
            result.wrong.append(f"{label}: {rows} rows reported, {len(table) - 1} "
                                f"written, expected {3 * spec.steps}")
            return result
        if table[0] != CSV_HEADER:
            result.wrong.append(f"{label}: header {table[0]}")
        body = table[1:]
        result.failed = sum(any("bracket" in row[-1] for row in body[j:j + 3])
                            for j in range(0, len(body), 3))
        grid = np.linspace(spec.lo, spec.hi, spec.steps)
        picks = {0, spec.steps - 1}
        picks.update(job_rng(self.seed, i, 1).choice(
            spec.steps, min(self.SAMPLED_POINTS, spec.steps), replace=False).tolist())
        for j in sorted(picks):
            value = float(grid[j])
            expected = expected_sweep_rows(base.with_values(**{spec.param: value}), value)
            for got, (fields, kind) in zip(body[3 * j:3 * j + 3], expected):
                status = got[-1]
                status_ok = (status == "ok" if kind == "ok"
                             else status.startswith(kind) if kind == "invalid"
                             else "corner" in status)
                if got[:-1] != fields or not status_ok:
                    result.wrong.append(f"{label} point {j}: got {got}, expected "
                                        f"{fields} with {kind} status")
        try:
            root = ET.fromstring(svg)
        except ET.ParseError as exc:
            result.wrong.append(f"{label}: SVG does not parse: {exc}")
        else:
            if not root.tag.endswith("svg") or not any(
                    el.tag.endswith("polyline") for el in root):
                result.wrong.append(f"{label}: SVG has no profit lines")
        self.tally["sweep.sweeps"] += 1
        self.tally["sweep.csv_bytes"] += len(text.encode())
        self.tally["sweep.svg_bytes"] += len(svg.encode())
        return result

    def warm_up(self) -> None:
        spec = sweep.SweepSpec("d", 0.0, 1.25 * corner_d(self.base), 5)
        self.check((self.base, spec, 0), self.run((self.base, spec, 0)))


CLI_QUERIES = (
    ("equilibrium", "--scenario", "same"),
    ("equilibrium", "--scenario", "compatible"),
    ("equilibrium", "--scenario", "incompatible"),
    ("compare",),
    ("thresholds",),
    ("verify", "--trials", "0"),
)
_NUMBER = re.compile(r"-?\d+\.\d{6}\b")


class CliWorkload(Workload):
    """Sequential fresh-process CLI queries on generated config files.

    Job i asks query i mod 6 of config i mod 41: the reference config and
    40 seeded draws. Consecutive jobs use different configs, so a short run
    averages over many; 41 is prime to 6, so every query meets every config.
    Every second draw gets a quality edge up to 1.25x the corner bound, so
    some queries end in the blockaded exit code 2.
    """

    name = "cli-queries"
    jobs_per_s = 1.8
    trace_jobs = 120

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        WORK_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR))
        self.configs: list[tuple[Path, ModelParams]] = []
        rng = np.random.default_rng([seed, 0, 2])
        for c in range(2 if tiny else 41):
            p = self.base if c == 0 else draw_config(rng)
            if c % 2 == 1:
                p = p.with_values(d=float(rng.uniform(0.0, 1.25)) * corner_d(p))
            path = self.dir / f"config{c}.json"
            path.write_text(json.dumps({name: getattr(p, name) for name in
                                        model.REQUIRED_FIELDS + model.OPTIONAL_FIELDS}))
            self.configs.append((path, ModelParams.from_json_file(str(path))))
        self._expected: dict[tuple[int, int], tuple] = {}

    def job(self, i: int) -> tuple[int, int, list[str]]:
        c = i % len(self.configs)
        q = i % len(CLI_QUERIES)
        command, *rest = CLI_QUERIES[q]
        return c, q, [command, "--config", str(self.configs[c][0]), *rest]

    def run(self, job):
        proc = subprocess.run([sys.executable, "-m", "chain_rivalry.cli", *job[2]],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=CLI_TIMEOUT_S, text=True)
        return proc.returncode, proc.stdout

    def replay(self, job):
        """Warm in-process cli.main: spans cannot follow a child process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(job[2])
        return code, buf.getvalue()

    def expected(self, c: int, q: int) -> tuple[int, list[str], str]:
        """Exit code, printed numbers and a marker line for one query."""
        key = (c, q)
        if key not in self._expected:
            self._expected[key] = _expect_query(self.configs[c][1], CLI_QUERIES[q])
        return self._expected[key]

    def check(self, job, out) -> Checked:
        c, q, argv = job
        code, text = out
        want_code, want_numbers, marker = self.expected(c, q)
        numbers = _NUMBER.findall(text) if want_numbers else want_numbers
        result = Checked(items=1)
        if code != want_code or numbers != want_numbers or marker not in text:
            result.failed = 1
            result.wrong.append(f"cli {' '.join(argv)}: exit {code}, expected "
                                f"{want_code}; output {text!r}")
        return result

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _expect_query(p: ModelParams, query: tuple[str, ...]) -> tuple[int, list[str], str]:
    command = query[0]
    try:
        if command == "equilibrium":
            out = _equilibrium(p, Scenario.from_name(query[2]))
            values = [out.pA1, out.pB1, out.pA2, out.pB2, out.cutoff1, out.cutoff2,
                      out.nA1, out.nB1, out.profitA1, out.profitA2, out.profitA,
                      out.profitB1, out.profitB2, out.profitB,
                      out.profitB_with_subsidy]
            return 0, [f"{v:.6f}" for v in values], f"scenario: {query[2]}"
        if command == "compare":
            dec = _adoption(p)
            return (0, [f"{dec.payoffs[k]:.6f}" for k in ("P1", "P2", "P3")],
                    f"chosen: {dec.chosen}")
        if command == "thresholds":
            rep = _thresholds(p)
            ok = rep.c3_star > rep.c2_star
            return (0 if ok else 3,
                    [f"{v:.6f}" for v in (rep.c2_star, rep.c3_star,
                                          rep.d2_star, rep.d3_star)],
                    "c3_star > c2_star: " + ("ok" if ok else "VIOLATED"))
        report = _run_verification(p, trials=0, seed=42, m=10000)
        return (0 if report.ok else 3, [],
                "PASS: all checks" if report.ok else "FAIL:")
    except CornerEquilibriumError:
        return 2, [], "error: blockaded equilibrium"


WORKLOADS = {w.name: w for w in (VerifyWorkload, VerifySimWorkload,
                                 SweepWorkload, CliWorkload)}
