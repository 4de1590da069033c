"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, on every workload at seed 0, that

1. traced counts equal values derived by hand from the workload definition
   (``quench`` makes exactly 121,202 ``master_rhs`` calls);
2. the outputs of a traced and an untraced job set are identical;
3. counts repeat exactly across two traced job sets;

and 4. that calls which exit non-zero, outputs that fail their check and
checks that raise are counted as failures instead of escaping the harness.
Exits 0 when every check passes.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

import worker
import workloads
from workloads import n_records, n_steps
from tracer import Tracer, summarize

OUT = Path(__file__).resolve().parent / "_out" / "selftest"


def expected_quench() -> dict:
    q = workloads.QUENCH
    steps, records = n_steps(q), n_records(q)
    return {
        # four rhs per RK4 step, one per recorded state (growth check), one initial
        "dissipators.master_rhs": 4 * steps + records + 1,
        "propagate.step_rk4": steps,
        "propagate.diagnose": records,
        "canonical.canonical_experiment": 1,
        "propagate.build_superoperator": 0,
        "propagate.expm": 0,
    }


def expected_exact() -> dict:
    sim = workloads.EXACT_INTEGRATION
    records = n_records(sim)
    gaps = {min(sim["record_every"], n_steps(sim) - k)
            for k in range(0, n_steps(sim), sim["record_every"])}
    routes = workloads.EXACT_ROUTES
    return {
        # per route: two assemblies of dim^2 probes (fixed point and
        # simulate), the fixed-point residual, the initial rhs norm, and one
        # rhs per recorded state
        "dissipators.master_rhs": sum(2 * N * N + 1 + 1 + records for _, N in routes),
        "propagate.build_superoperator": 2 * len(routes),
        "propagate.expm": len(gaps) * len(routes),
        "propagate.diagnose": records * len(routes),
        "stationary.fixed_point": len(routes),
        "propagate.step_rk4": 0,
    }


def expected_small() -> dict:
    mix, sizes = workloads.SMALL_MIX, workloads.SMALL_SIZES
    expm, rk4 = workloads.SMALL_SIM["expm"], workloads.SMALL_SIM["rk4"]
    ladder_N = sizes["ladder_N"]
    per_size = mix["fixed-point-ladder"] // len(ladder_N)
    apps = sizes["bench_applications"]
    rhs = (
        mix["fixed-point-2"] * (4 + 1)
        + per_size * sum(N * N + 1 for N in ladder_N)
        + mix["simulate-expm"] * (4 + 1 + n_records(expm))
        + mix["simulate-rk4"] * (4 * n_steps(rk4) + 1 + n_records(rk4))
        # both kernels over the timing inputs, then both over the deviation inputs
        + (mix["bench-2"] + mix["bench-ladder"]) * (2 * apps + 2 * min(apps, 20000))
    )
    return {
        "dissipators.master_rhs": rhs,
        "stationary.fixed_point": mix["fixed-point-2"] + mix["fixed-point-ladder"],
        "propagate.build_superoperator": (mix["fixed-point-2"] + mix["fixed-point-ladder"]
                                          + mix["simulate-expm"]),
        # every expm interval has the same length, so one propagator per call
        "propagate.expm": mix["simulate-expm"],
        "propagate.step_rk4": mix["simulate-rk4"] * n_steps(rk4),
        "propagate.diagnose": (mix["simulate-expm"] * n_records(expm)
                               + mix["simulate-rk4"] * n_records(rk4)),
    }


EXPECTED = {"quench": expected_quench, "exact": expected_exact, "small": expected_small}


def quiet():
    """Swallow what the CLI prints (output paths, error records)."""
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


class Report:
    def __init__(self):
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        self.failed += not ok


def check_workload(name: str, report: Report) -> None:
    wl = workloads.build(name, 0)
    cfg_dir, out_dir = OUT / name / "cfg", OUT / name / "out"
    worker.write_configs(wl.warmup + wl.jobs, cfg_dir)
    tracer = Tracer()
    with quiet():
        warm = worker.run_jobs(wl.warmup, cfg_dir, out_dir)
        plain = worker.run_jobs(wl.jobs, cfg_dir, out_dir)
        plain_digests = worker.output_digests(wl.jobs, out_dir)
        with tracer:
            traced = [worker.run_jobs(wl.jobs, cfg_dir, out_dir, tracer) for _ in range(2)]
    traced_digests = worker.output_digests(wl.jobs, out_dir)
    failures = warm.failures + plain.failures + [f for s in traced for f in s.failures]
    report.check(not failures, f"{name}: every output within tolerance {failures[:3]}")
    report.check(plain_digests == traced_digests and bool(plain_digests),
                 f"{name}: traced and untraced outputs identical ({len(plain_digests)} files)")
    counts = [summarize(tracer, *s.spans)["calls"] for s in traced]
    report.check(counts[0] == counts[1], f"{name}: counts repeat across two job sets")
    for span, want in EXPECTED[name]().items():
        got = counts[0].get(span, 0)
        report.check(got == want, f"{name}: {span} calls {got} == {want}")
    if name == "exact":
        metrics, _ = worker.per_layer(tracer, traced)
        hit = metrics["propagate.expm.hit_ratio"]
        report.check(abs(hit - 1 / 3) < 1e-12, f"exact: expm hit ratio {hit:.6f} == 1/3")
        report.check(metrics["propagate.superop_dim"] == 32 * 32,
                     f"exact: superop_dim {metrics['propagate.superop_dim']} == 1024")


def always_raises(path: Path) -> None:
    raise KeyError(f"unexpected error while checking {path.name}")


def check_failure_accounting(report: Report) -> None:
    wl = workloads.build("small", 0)
    fp2 = next(j for j in wl.jobs if j.name.startswith("fp2_"))
    good = [j for j in wl.jobs if j.subcommand in ("fixed-point", "simulate")][:5]
    wrong_state = np.diag([1.0, 0.0]).astype(complex)
    bad = [
        # the CLI rejects the config (canonical needs a ladder): exit code 1
        replace(fp2, name="bad_exit", subcommand="canonical"),
        # argparse rejects the subcommand and raises SystemExit inside main()
        replace(fp2, name="bad_argv", subcommand="no-such-subcommand"),
        # the output is fine but checked against the wrong closed form
        replace(fp2, name="bad_value",
                check=partial(workloads.check_fixed_point, gibbs_tol=None,
                              analytic=wrong_state)),
        # the check itself raises something other than CheckFailed
        replace(fp2, name="bad_check", check=always_raises),
    ]
    jobs = good + bad
    cfg_dir, out_dir = OUT / "failures" / "cfg", OUT / "failures" / "out"
    worker.write_configs(jobs, cfg_dir)
    try:
        with quiet():
            result = worker.run_jobs(jobs, cfg_dir, out_dir)
    except (Exception, SystemExit) as exc:  # the point of the test: nothing may escape
        report.check(False, f"failure accounting: harness raised {exc!r}")
        return
    names = sorted(f.split(":")[0] for f in result.failures)
    report.check(names == sorted(j.name for j in bad),
                 f"failure accounting: failed {names}, error_rate "
                 f"{len(result.failures)}/{len(result.latencies_s)}")


def main() -> int:
    report = Report()
    for name in workloads.WORKLOADS:
        check_workload(name, report)
    check_failure_accounting(report)
    print(f"selftest: {report.failed} check(s) failed")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
