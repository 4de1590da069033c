"""ebloch benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload {quench,exact,small} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  A worker process repeats the workload's
job set as many times as fit in ``--seconds`` on the baseline machine and
checks every output.  Set-up (imports, config generation and the warm-up
calls, up to the first timed call) is timed in the worker and in fresh
processes the worker starts between its job sets, and reported as the
median.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
worker spends half the time untraced and half traced and the per-layer
metrics are printed.  The last line of standard output is one JSON object;
a human-readable table and the run record come before it.  Every file the
benchmark writes goes under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of files outside _out/
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The worker stops starting job sets at twice its budget; the margin covers
# the pass in flight and, in a traced run, summarising the spans.
WORKER_MARGIN_S = 60.0
# One BLAS thread: the small matrices gain nothing from more, and a single
# thread keeps dense expm/eig timings steady on a shared machine.
BLAS_THREADS = 1


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, work_dir: Path) -> tuple[float, dict]:
    """Start the worker, wait for it, return (its set-up seconds, its result)."""
    result_path = work_dir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir),
           "--result", str(result_path)]
    log_path = work_dir / "worker.log"
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                                stdout=subprocess.DEVNULL, stderr=log)
        try:
            code = proc.wait(timeout=2 * args.seconds + WORKER_MARGIN_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker timed out; see {log_path}") from None
    if code != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8").splitlines()[-15:]
        raise BenchError(f"worker exited with {code}:\n" + "\n".join(tail))
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result["ready_monotonic"] - t_spawn, result


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ebloch").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, setup_samples, worker) -> dict:
    versions = worker["versions"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "setup_samples": len(setup_samples),
        "repeats": worker["repeats"],
        "samples": (worker["end_to_end"]["samples"] if "end_to_end" in worker
                    else {"traced_job_sets": worker["traced_job_sets"]}),
        "params": worker["params"],
        "output_sha256": worker["output_sha256"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ebloch benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ebloch" / "cli.py").is_file():
        print(f"no ebloch sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    try:
        units = metric_units()
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read metric units from BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    work_dir = HERE / "_out" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        worker_setup, worker = run_worker(args, work_dir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup = [worker_setup, *worker.get("setup_samples_s", [])]

    failures = worker["warmup_failures"] + worker["failures"]
    attempted = worker["attempted"]
    failed = len(worker["failures"])
    correct = not failures
    lines = [f"ebloch benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    if args.trace:
        correct = correct and worker["counts_repeat"] and worker["outputs_identical"]
        metrics = worker["per_layer"]
        for name, value in metrics.items():
            lines.append(f"  {name:42s} {value:16.6g} {units[name]}")
        lines.append(f"  per job set, over {worker['traced_job_sets']} traced job sets "
                     f"({worker['spans']} spans); counts repeat: {worker['counts_repeat']}; "
                     f"traced and untraced outputs identical: {worker['outputs_identical']}")
    else:
        e2e = worker["end_to_end"]
        n = e2e["samples"]
        metrics = {"setup_s": statistics.median(setup),
                   **{k: e2e[k] for k in ("wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")}}
        notes = {
            "setup_s": f"median of {len(setup)} set-ups",
            "wall_s": f"{n['calls']} calls and checks, each the fastest of {n['job_sets']}",
            "op_p50_ms": f"{n['calls']} calls, each the fastest of {n['job_sets']}",
            "op_p90_ms": f"{n['calls']} calls, {n['calls_beyond_p90']} beyond"
                         + ("" if n["calls_beyond_p90"] >= 10 else "; too few for a tail"),
            "peak_rss_mb": "ru_maxrss of the worker",
        }
        for name, value in metrics.items():
            lines.append(f"  {name:12s} {value:14.6g} {units[name]:3s}  ({notes[name]})")
        lines.append(f"  {'error_rate':12s} {failed / attempted:14.6g} ratio  "
                     f"({failed} of {attempted} calls)")
    for failure in failures[:20]:
        lines.append(f"  FAILED {failure}")
    record = run_record(args, setup, worker)
    (work_dir / "run_record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
