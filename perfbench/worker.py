"""One workload in one process: set up, run the timed job sets, check outputs.

Started by ``run.py``; not meant to be run by hand.  It calls
``ebloch.cli.main`` in-process as a closed loop (one call in flight, the
next starts when the previous returns), checks every output against its
tolerance and writes one JSON result file.  With ``--setup-only`` it stops
right before the first timed call; an untraced worker starts such processes
between its job sets to time set-up repeatedly over the whole run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ebloch  # noqa: E402
import ebloch.cli  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

# set-ups timed between the job sets of an untraced run, besides the worker's own
EXTRA_SETUPS = 6
SETUP_TIMEOUT_S = 30.0
# bench.csv carries wall-clock columns; they are left out when outputs of two
# runs are compared
TIMING_COLUMNS = ("ns_per_apply", "ratio_to_gkls")


@dataclass
class JobSet:
    """Outcome of one pass over a workload's jobs."""

    latencies_s: list[float] = field(default_factory=list)  # each cli.main call
    steps_s: list[float] = field(default_factory=list)  # each call with its check
    failures: list[str] = field(default_factory=list)
    spans: tuple[int, int] = (0, 0)


def write_configs(jobs, cfg_dir: Path) -> None:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        (cfg_dir / f"{job.name}.cfg").write_text(job.config_text(), encoding="utf-8")


def run_jobs(jobs, cfg_dir: Path, out_dir: Path, tracer: Tracer | None = None) -> JobSet:
    """Closed loop over ``jobs``; a call that fails or raises, or an output
    that fails its check, is recorded as a failure and never propagates."""
    result = JobSet()
    cli = sys.modules["ebloch.cli"]
    first_span = len(tracer) if tracer is not None else 0
    for job in jobs:
        argv = [job.subcommand, "--config", str(cfg_dir / f"{job.name}.cfg"),
                "--seed", str(job.cli_seed), "--out", str(out_dir)]
        if tracer is not None:
            tracer.begin_call()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:  # the harness must keep running; the failure is counted
            code = traceback.format_exc(limit=3)
        result.latencies_s.append(time.perf_counter() - t0)
        if code != 0:
            result.failures.append(f"{job.name}: {job.subcommand} exited with {code}")
        else:
            try:
                job.check(out_dir / job.csv_name)
            except Exception as exc:  # a malformed output is a failed check too
                result.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
        result.steps_s.append(time.perf_counter() - t0)
    result.spans = (first_span, len(tracer) if tracer is not None else 0)
    return result


def output_digests(jobs, out_dir: Path) -> dict[str, str]:
    """sha256 of every output file, bench timing columns blanked."""
    digests = {}
    for job in jobs:
        csv = out_dir / job.csv_name
        for path in (csv, csv.with_suffix(".state.txt")):
            if not path.exists():
                continue
            text = path.read_text(encoding="utf-8")
            if job.subcommand == "bench":
                text = _blank_columns(text, TIMING_COLUMNS)
            digests[path.name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def _blank_columns(text: str, names) -> str:
    lines = text.splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cols = [i for i, name in enumerate(lines[header_at].split(",")) if name in names]
    for i in range(header_at + 1, len(lines)):
        cells = lines[i].split(",")
        for c in cols:
            cells[c] = ""
        lines[i] = ",".join(cells)
    return "\n".join(lines)


def timed_loop(jobs, cfg_dir, out_dir, repeats: int, budget_s: float,
               tracer=None, between=None) -> list[JobSet]:
    """Run the job set ``repeats`` times, calling ``between(done)`` after
    each pass.  A build so slow that the passes overrun twice their budget
    stops early, so the run still ends in time."""
    sets: list[JobSet] = []
    t0 = time.perf_counter()
    while len(sets) < repeats and (not sets or time.perf_counter() - t0 < 2 * budget_s):
        sets.append(run_jobs(jobs, cfg_dir, out_dir, tracer))
        if between is not None:
            between(len(sets))
    return sets


def time_setup(argv: list[str], result: Path) -> float:
    """Seconds from starting a ``--setup-only`` worker to the moment its
    first timed call would begin."""
    result.unlink(missing_ok=True)
    t0 = time.monotonic()
    subprocess.run([sys.executable, __file__, *argv, "--setup-only", "--result", str(result)],
                   check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return json.loads(result.read_text(encoding="utf-8"))["ready_monotonic"] - t0


def best_wall_s(sets: list[JobSet]) -> float:
    """Job-set time with each call and its check at its fastest repetition."""
    return sum(min(col) for col in zip(*(s.steps_s for s in sets)))


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(sets: list[JobSet]) -> dict:
    """Job-set wall time and per-call latency percentiles.

    Each call's time is its fastest repetition over the job sets, as
    ``timeit`` takes it: slower repetitions measure interference from the
    rest of the machine, not the call.  ``wall_s`` sums these over the job
    set, checks included; the percentiles are taken over the workload's
    distinct calls, so the tail is the slowest kinds of call.
    """
    per_call = [min(col) for col in zip(*(s.latencies_s for s in sets))]
    p90 = _percentile(per_call, 90)
    return {
        "wall_s": best_wall_s(sets),
        "op_p50_ms": _percentile(per_call, 50) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": {"job_sets": len(sets), "calls": len(per_call),
                    "calls_beyond_p90": sum(x > p90 for x in per_call)},
    }


def per_layer(tracer: Tracer, traced: list[JobSet]) -> tuple[dict, bool]:
    """Per-layer metrics per job set, averaged over the traced job sets, and
    whether every traced job set made exactly the same calls."""
    sums = [summarize(tracer, *s.spans) for s in traced]

    def mean(kind, name, default=0):
        return sum(s[kind].get(name, default) for s in sums) / len(sums)

    def calls(name):
        return mean("calls", name)

    def secs(name):
        return mean("s", name, 0.0)

    def own(name):
        return mean("self_s", name, 0.0)

    rhs = "dissipators.master_rhs"
    intervals = sum(s["intervals"] for s in sums) / len(sums)
    dim = tracer.superop_dim
    metrics = {
        f"{rhs}.calls": calls(rhs),
        f"{rhs}.s": secs(rhs),
        f"{rhs}.us_per_call": secs(rhs) / calls(rhs) * 1e6 if calls(rhs) else 0.0,
        "dissipators.RhsSpec.calls": calls("dissipators.RhsSpec"),
        "dissipators.RhsSpec.s": secs("dissipators.RhsSpec"),
        "propagate.step_rk4.calls": calls("propagate.step_rk4"),
        "propagate.step_rk4.self_s": own("propagate.step_rk4"),
        "propagate.diagnose.calls": calls("propagate.diagnose"),
        "propagate.diagnose.s": secs("propagate.diagnose"),
        "propagate.build_superoperator.calls": calls("propagate.build_superoperator"),
        "propagate.build_superoperator.self_s": own("propagate.build_superoperator"),
        "propagate.superop_dim": dim,
        "propagate.superop_bytes": dim * dim * 16,
        "propagate.expm.calls": calls("propagate.expm"),
        "propagate.expm.s": secs("propagate.expm"),
        "propagate.expm.hit_ratio":
            (intervals - calls("propagate.expm")) / intervals if intervals else 0.0,
        "stationary.fixed_point.calls": calls("stationary.fixed_point"),
        "stationary.fixed_point.self_s": own("stationary.fixed_point"),
        "canonical.canonical_experiment.self_s": own("canonical.canonical_experiment"),
        "bench.run_bench.self_s": own("bench.run_bench"),
        "bench.max_deviation.self_s": own("bench.max_deviation"),
        "cli.parse_config.s": secs("cli.parse_config"),
        "cli.self_s": own("cli.main"),
        "systems.calls": mean("layer_calls", "systems"),
        "systems.s": mean("layer_s", "systems"),
        "linalg.as_matrix.calls": calls("linalg.as_matrix"),
        "linalg.hermitian_eig.calls": calls("linalg.hermitian_eig"),
    }
    return metrics, all(s["calls"] == sums[0]["calls"] for s in sums)


def versions() -> dict[str, str]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"ebloch": ebloch.__version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True, help="scratch directory for configs and outputs")
    p.add_argument("--result", required=True, help="path of the JSON result file")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if Path(ebloch.__file__).resolve().parent != ROOT / "src" / "ebloch":
        print(f"imported ebloch from {ebloch.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    work = Path(args.work_dir)
    cfg_dir, out_dir = work / "cfg", work / "out"
    wl = workloads.build(args.workload, args.seed)
    write_configs(wl.warmup + wl.jobs, cfg_dir)
    warm = run_jobs(wl.warmup, cfg_dir, out_dir)
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "warmup_failures": warm.failures}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    # a traced run spends half the budget untraced and half traced, so the
    # tracing overhead is measured on the same seed and job set in one process
    budget = args.seconds / 2 if args.trace else args.seconds
    repeats = wl.repeats(budget)
    if args.trace:
        plain = timed_loop(wl.jobs, cfg_dir, out_dir, repeats, budget)
        plain_digests = output_digests(wl.jobs, out_dir)
        tracer = Tracer()
        with tracer:
            traced = timed_loop(wl.jobs, cfg_dir, out_dir, repeats, budget, tracer)
        traced_digests = output_digests(wl.jobs, out_dir)
        metrics, counts_repeat = per_layer(tracer, traced)
        metrics["trace.overhead_s"] = best_wall_s(traced) - best_wall_s(plain)
        tracer.save(work / "spans.npz")
        sets = plain + traced
        result.update({
            "per_layer": metrics,
            "counts_repeat": counts_repeat,
            "outputs_identical": plain_digests == traced_digests,
            "traced_job_sets": len(traced),
            "spans": len(tracer),
            "output_sha256": traced_digests,
        })
    else:
        setups: list[float] = []
        setup_argv = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--work-dir", args.work_dir]

        def sample_setups(done: int) -> None:
            # spread evenly over the run, so the samples see the machine's
            # slow and fast spells as the job sets do
            due = EXTRA_SETUPS * done // repeats - EXTRA_SETUPS * (done - 1) // repeats
            setups.extend(time_setup(setup_argv, work / "setup.json") for _ in range(due))

        sets = timed_loop(wl.jobs, cfg_dir, out_dir, repeats, budget, between=sample_setups)
        result.update({"end_to_end": end_to_end(sets), "setup_samples_s": setups,
                       "output_sha256": output_digests(wl.jobs, out_dir)})
    result.update({
        "repeats": repeats,
        "versions": versions(),
        "attempted": sum(len(s.latencies_s) for s in sets),
        "failures": [f for s in sets for f in s.failures],
        "params": {**wl.params, "set_seconds": wl.set_seconds},
    })
    Path(args.result).write_text(json.dumps(result, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
