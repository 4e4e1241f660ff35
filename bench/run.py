#!/usr/bin/env python3
"""Benchmark of the chain-rivalry package.

Run from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

One process drives one workload as a closed loop with a single client (see
workloads.py). With --trace 0 it runs round(--seconds x the workload's
nominal job rate) jobs, about --seconds of work on the reference machine, and
reports the end-to-end metrics. The job count does not depend on how fast the
machine happens to be, so the work of a run, and with it `attempted` and
`failed`, depends only on --seed and --seconds. With --trace 1 it replays a
fixed list of jobs, first untraced and then with a span around every layer
entry point, and reports per-layer metrics and the tracing overhead.
Information lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code is
0 for a correct run, 1 when an output was wrong, and 2 when the checkout holds
no package sources.

The machine this runs on may be shared, and its speed drifts by tens of
percent over minutes. Every timing is therefore scaled to a reference
speed: a fixed probe runs between consecutive jobs (a loop of Python and
numpy calls for in-process jobs, a fresh `python3 -c "import numpy"` for
jobs that start a process), and each job's time is multiplied by
(reference / mean of the probes beside it) ** SCALE_EXPONENT. Raw figures
are printed on the information lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
CLI_PROBES = 5
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10
# The reference machine: the speed probe loop takes REF_LOOP_S there and a
# fresh interpreter importing numpy takes REF_PROCESS_S.
REF_LOOP_S = 0.005
REF_PROCESS_S = 0.18
# A job's time is scaled by (reference / probe time) ** SCALE_EXPONENT. The
# exponent is below 1 because one probe is itself noisy: regressing the times
# of a repeated fixed job on the probe times beside it gave slopes of 0.8 to
# 0.9, and 0.85 gave the smallest run-to-run spread over ten seeds on the
# in-process workloads (0.8 to 1 on cli-queries).
SCALE_EXPONENT = 0.85

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "verify-sim", "sweep", "cli-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: small jobs, one probe each")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "loadavg_at_start": os.getloadavg(),
        "note": "only this benchmark's own processes are measured; the "
                "machine may be shared and no machine setting is changed",
    }


def loop_probe() -> float:
    """Seconds for a fixed in-process loop: half plain Python, half numpy
    calls on 0-d arrays, the two kinds of work the in-process jobs do."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(12500):
        acc += (i * 0.5) ** 0.5
        table[i & 255] = acc
    x = np.asarray(0.3)
    for _ in range(350):
        acc += float(np.clip(np.minimum(x * 1.1, 0.9), 0.0, 1.0))
    return time.perf_counter() - t0


def process_probe() -> float:
    """Wall seconds of a fresh interpreter that imports numpy, the fixed
    part of every cold start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"],
                   timeout=PROBE_TIMEOUT_S, check=True)
    return time.perf_counter() - t0


PROBES = {"loop": (loop_probe, REF_LOOP_S), "process": (process_probe, REF_PROCESS_S)}


def scale(ref: float, before: float, after: float) -> float:
    """Factor taking a time measured between two probes to the reference speed."""
    return (ref / ((before + after) / 2.0)) ** SCALE_EXPONENT


def _ready_after(argv: list[str]) -> float:
    """Start a fresh interpreter and return how long after the start it
    printed its ready time (perf_counter is system-wide monotonic on Linux)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - t0


def setup_times(args, count: int) -> list[tuple[float, float]]:
    """(raw, scaled) set-up times of fresh benchmark processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    times = []
    before = process_probe()
    for _ in range(count):
        raw = _ready_after(argv)
        after = process_probe()
        times.append((raw, raw * scale(REF_PROCESS_S, before, after)))
        before = after
    return times


def cli_probes(count: int) -> dict[str, float]:
    """Fresh-process costs behind every cold CLI call, unscaled."""
    interp = [_ready_after([sys.executable, "-c", "import time; print(time.perf_counter())"])
              for _ in range(count)]
    numpy_s, package_s = [], []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c",
             "import time; t0 = time.perf_counter(); import numpy; "
             "t1 = time.perf_counter(); import chain_rivalry.cli; "
             "print(t1 - t0, time.perf_counter() - t0)"],
            stdout=subprocess.PIPE, text=True,
            timeout=PROBE_TIMEOUT_S, check=True).stdout.split()
        numpy_s.append(float(out[0]))
        package_s.append(float(out[1]))
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.numpy_import_s": statistics.median(numpy_s),
            "cli.import_s": statistics.median(package_s)}


class Loop:
    """Closed-loop driver: run one job, check it outside the timing, move on.

    A speed probe runs between consecutive jobs; each job's time is scaled
    by `scale` of the probes on either side.
    """

    def __init__(self, workload, probe: str, recorder=None) -> None:
        self.w = workload
        self.probe, self.ref = PROBES[probe]
        self.recorder = recorder
        self.raw: list[float] = []      # job wall times
        self.probes: list[float] = []   # probe times, before the first job and after each
        self.scales: list[float] = []   # scale() factor, per job
        self.job_items: list[int] = []
        self.failed = 0
        self.wrong: list[str] = []

    def drive(self, run, count: int) -> None:
        rec = self.recorder
        before = self.probe()
        self.probes.append(before)
        for i in range(count):
            job = self.w.job(i)
            if rec is not None:
                rec.current_request = i
                sid = rec.open("request")
            t0 = time.perf_counter()
            out = run(job)
            dt = time.perf_counter() - t0
            if rec is not None:
                rec.close(sid)
            after = self.probe()
            self.probes.append(after)
            if rec is not None:
                rec.paused = True
            checked = self.w.check(job, out)
            if rec is not None:
                rec.paused = False
            self.raw.append(dt)
            self.scales.append(scale(self.ref, before, after))
            self.job_items.append(checked.items)
            self.failed += checked.failed
            self.wrong.extend(checked.wrong)
            before = after

    @property
    def items(self) -> int:
        return sum(self.job_items)

    def busy(self, scaled: bool = True) -> float:
        return sum(dt * (s if scaled else 1.0) for dt, s in zip(self.raw, self.scales))

    def per_item(self, scaled: bool = True) -> list[float]:
        return [dt * (s if scaled else 1.0) / n
                for dt, s, n in zip(self.raw, self.scales, self.job_items)]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def untraced_run(args, workloads) -> tuple[dict, list[Loop], list[str]]:
    from tracing import patch_attrs
    w = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    cold = args.workload == "cli-queries"
    try:
        with patch_attrs(w.patches()):
            w.warm_up()
            loop = Loop(w, "process" if cold else "loop")
            loop.drive(w.run, count=max(1, round(args.seconds * w.jobs_per_s)))
    finally:
        w.close()
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = setup_times(args, 1 if args.tiny else SETUP_PROBES)
    per_item = loop.per_item()
    tail_value, tail_pct = tail(per_item)
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "items_per_s": loop.items / loop.busy(),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": tail_value * 1e3,
        "pass_ratio": 1.0 - loop.failed / loop.items,
        "peak_rss_mb": peak_mb,
    }
    raw_item = loop.per_item(scaled=False)
    info = [
        f"{loop.items} items in {len(loop.raw)} jobs; failed {loop.failed} "
        f"(failed_ratio {loop.failed / loop.items:.6f})",
        f"item_tail_ms is p{tail_pct:.1f} of {len(per_item)} jobs "
        f"({min(TAIL_BEYOND, len(per_item) - 1)} beyond)",
        f"speed scale per job: median {statistics.median(loop.scales):.4f}, "
        f"min {min(loop.scales):.4f}, max {max(loop.scales):.4f}",
        f"raw: items_per_s {loop.items / loop.busy(scaled=False):.6g}, "
        f"item_p50_ms {statistics.median(raw_item) * 1e3:.6g}, "
        f"item_tail_ms {tail(raw_item)[0] * 1e3:.6g}, setup_s "
        f"{statistics.median(r for r, _ in setups):.6g}",
        "setup_s samples (raw/scaled): "
        + ", ".join(f"{r:.4f}/{s:.4f}" for r, s in setups),
    ]
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()}, [loop], info


def traced_run(args, workloads) -> tuple[dict, list[Loop], list[str]]:
    import layers
    from tracing import Recorder, patch_attrs
    before = layers.current_targets()
    extra = cli_probes(1 if args.tiny else CLI_PROBES)
    w = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    jobs = 2 if args.tiny else w.trace_jobs
    rec = Recorder()
    try:
        with patch_attrs(w.patches()):
            w.warm_up()
            # One full job first, so that neither pass pays for first-use
            # costs (allocator growth, lazy imports) the other does not.
            Loop(w, "loop").drive(w.replay, count=1)
            plain = Loop(w, "loop")
            plain.drive(w.replay, count=jobs)
            w.tally.clear()
            loop = Loop(w, "loop", rec)
            with layers.traced(rec):
                loop.drive(w.replay, count=jobs)
    finally:
        w.close()
    restored = layers.current_targets() == before
    stats = rec.span_stats(loop.scales)
    extra.update({
        "cli.main.p50_ms": (statistics.median(plain.per_item()) * 1e3
                            if args.workload == "cli-queries" else 0.0),
        "trace.wall_s": loop.busy(),
        "trace.overhead_ratio": loop.busy() / plain.busy() - 1.0,
    })
    values = layers.layer_metrics(stats, rec.counts, w.tally, extra)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    rec.write(spans_path)
    info = [f"traced {jobs} jobs, {len(rec)} spans, written to "
            f"{spans_path.relative_to(ROOT)}; untraced replay "
            f"{plain.busy():.4f} s, traced {loop.busy():.4f} s (scaled)"]
    missing = layers.missing_hooks()
    if missing:
        info.append("hooks absent, their metrics read 0 or are left out: "
                    + ", ".join(missing))
    if not restored:
        loop.wrong.append("tracing wrappers were not removed after the run")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in layers.PER_LAYER.items() if name in values}
    return metrics, [plain, loop], info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chain_rivalry" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run the benchmark from "
              "the root of a chain-rivalry checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Every child interpreter (probes, CLI queries) imports the same sources.
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if paths[0] != str(SRC):
        os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in paths if p])
    import workloads

    if args.setup_only:
        w = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
        try:
            w.warm_up()
            ready = time.perf_counter()
        finally:
            w.close()
        print(ready)
        return 0

    env = environment()
    metrics, loops, info = (traced_run if args.trace else untraced_run)(args, workloads)
    wrong = [line for loop in loops for line in loop.wrong]
    result = {"correct": not wrong, "attempted": sum(loop.items for loop in loops),
              "failed": sum(loop.failed for loop in loops), "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "env": env,
                   "info": info, "wrong": wrong, **result,
                   "jobs": [{"raw_s": loop.raw, "probe_s": loop.probes,
                             "items": loop.job_items} for loop in loops]}, fh)
    for line in wrong[:20]:
        print(f"WRONG OUTPUT: {line}", file=sys.stderr)
    print("env " + json.dumps(env))
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
