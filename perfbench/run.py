"""Job-level benchmark of the zecap CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload alpha-powers --seed 0 --seconds 30 --trace 0

Each workload is a fixed, seeded list of CLI jobs (see ``workloads.py``).
Every job runs through ``zecap.cli.run`` in a fresh interpreter, with its
report serialized the way ``cli.main`` does it.  Jobs run one at a time: a
closed loop with one client and one job process, because a CLI user pays
for the import and for cold caches on every call, and theta's
``lru_cache`` must not carry work from one job into the next.  The job
environment pins BLAS to one thread and unsets ``ZW_MAX_VERTICES``.

``--trace 0`` runs whole passes over the job list (``workloads.passes``)
and reports the end-to-end metrics:

    makespan_s   time to finish the job list, interpreter start-up
                 excluded (sum over jobs of the job's best pass)
    job_p50_s    median over jobs of the job time, cli.run entry to
                 serialized report (each job's best pass)
    job_tail_s   job time at the highest percentile with >= 10 samples
                 beyond it, over every (job, pass) sample (the percentile
                 and sample count are printed)
    setup_s      median over job starts of interpreter start plus import
                 zecap
    peak_rss_mb  largest resident set of any job process

Times are scaled to a reference host speed measured by a calibration
kernel that every job process times before it imports zecap (``_scale``);
the unscaled times are printed on the line before the result.

Failed jobs are counted in ``failed`` against ``attempted`` (the failed
ratio is printed; it is 0 at the commit that added the benchmark, and a
metric that reads 0 cannot carry a relative bound).

``--trace 1`` runs one untraced pass and two traced passes, wraps each
layer's public functions from the benchmark's own files (``spans.py``),
checks that every work count repeats exactly, times the layer probes, and
reports the per-layer metrics that ``BENCHMARK.json`` names.

Every answer is checked for soundness (``check.py``) against known values
and the recorded seed answers in ``answers.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the reproducibility
record (job list with graph bitstrings, versions, thread pin, nproc) and a
readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
JOB_PY = BENCH / "job.py"
ANSWERS = BENCH / "answers.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKDIR = Path(".bench_work")
RUN_LIMIT_S = 170.0  # every job is stopped by then, so a run ends within 180 s
BLAS_THREADS = "1"
TAIL_BEYOND = 10
ALPHA_C5_3_NODES = 717_637  # baseline recorded in ROADMAP.md

# Time of job.calibrate on the host the benchmark was tuned on (2-vCPU Xeon
# VM at 2.1 GHz, Python 3.11.7) while other tenants left it alone; under
# their load the kernel took up to 2.5x as long.  See ``_scale``.
CALIBRATION_REFERENCE_S = 0.0102
# Job times on that host follow the kernel's time to this power: the kernel
# slows more under load than the jobs do.  Of 0.5-1.0, the exponent 0.7 gave
# the smallest run-to-run spread over 30 runs of the three workloads; on
# single jobs timed 95 times each, 0.7-0.8 did best.
CALIBRATION_EXPONENT = 0.7


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _job_env() -> dict:
    env = dict(os.environ)
    env.pop("ZW_MAX_VERTICES", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


class Runner:
    """Runs jobs one at a time and checks each answer."""

    def __init__(self, answers: dict, deadline: float):
        self.answers = answers
        self.deadline = deadline
        self.env = _job_env()

    def seed_answer(self, job: dict) -> dict | None:
        entry = self.answers.get(job["id"])
        if entry is None or entry.get("graph") != job["expect"].get("base"):
            return None
        return entry["answer"]

    def run_job(self, job: dict, traced: bool) -> dict:
        import check

        result = {"id": job["id"]}
        started = _clock()
        if started >= self.deadline:
            result["problem"] = "not started: run time limit reached"
            return result
        try:
            proc = subprocess.run(
                [sys.executable, str(JOB_PY), "1" if traced else "0", *job["argv"]],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=self.deadline - started,
            )
        except subprocess.TimeoutExpired:
            result["problem"] = "stopped: run time limit reached"
            return result
        finished = _clock()
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            result["problem"] = f"crashed with exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
            return result
        out = json.loads(lines[-1])
        if not Path(out["zecap"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"job imported zecap from {out['zecap']}, not from {ROOT / 'src'}")
        report = json.loads(out["report"])
        result.update(
            setup_s=out["ready"] - started - out["calibration_s"],
            done_s=finished - out["ready"],
            job_s=out["job_s"],
            calibration_s=out["calibration_s"],
            code=out["code"],
            rss_mb=out["maxrss_kb"] / 1024,
            trace=out.get("trace"),
        )
        result["problem"] = check.check(job, out["code"], report, self.seed_answer(job))
        if not result["problem"]:
            result["summary"] = check.summarize(job, out["code"], report)
        return result

    def run_pass(self, jobs: list[dict], traced: bool) -> list[dict]:
        results = [self.run_job(job, traced) for job in jobs]
        for r in results:
            if r["problem"]:
                print(f"FAILED {r['id']}: {r['problem']}")
        return results


def _ran(results: list[dict]) -> list[dict]:
    return [r for r in results if "job_s" in r]


def _scale(r: dict) -> float:
    """Factor that turns a job's times into unloaded-host seconds.

    The host is a shared VM: other tenants slow it by up to 2x, through
    contention the operating system does not see (CPU time grows with wall
    time), and the speed changes within a second.  Each job process times
    a fixed kernel before it imports zecap; the kernel is benchmark code
    and zecap is not loaded yet, so only the host speed moves it.  Times
    are multiplied by (CALIBRATION_REFERENCE_S / kernel time) **
    CALIBRATION_EXPONENT.  Over 69 runs each of three jobs on that host
    under load, this cut the spread (IQR over median) of single job times
    from 0.31-0.37 to 0.11-0.12.  The same kernel timed in this process
    around each job left 0.15-0.23, as the job process is closer in time
    to the job.  The measured times are printed as well.
    """
    return (CALIBRATION_REFERENCE_S / r["calibration_s"]) ** CALIBRATION_EXPONENT


def _makespan(results: list[dict]) -> float:
    return sum(r["done_s"] * _scale(r) for r in _ran(results))


def _tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _best(passes: list[list[dict]], key: str, scaled: bool) -> list[float]:
    """Each job's best (smallest) value of key over the passes."""
    per_job: dict[str, float] = {}
    for results in passes:
        for r in _ran(results):
            value = r[key] * _scale(r) if scaled else r[key]
            per_job[r["id"]] = min(per_job.get(r["id"], value), value)
    return list(per_job.values())


def _times(passes: list[list[dict]], scaled: bool) -> tuple[dict, float, int]:
    """The time metrics, and the percentile and sample count job_tail_s stands for."""
    ran = [r for p in passes for r in _ran(p)]
    samples = [r["job_s"] * (_scale(r) if scaled else 1) for r in ran]
    tail, pct = _tail(samples)
    starts = [r["setup_s"] * (_scale(r) if scaled else 1) for r in ran]
    values = {
        "makespan_s": sum(_best(passes, "done_s", scaled)),
        "job_p50_s": statistics.median(_best(passes, "job_s", scaled)),
        "job_tail_s": tail,
        "setup_s": statistics.median(starts),
    }
    return values, pct, len(samples)


def end_to_end(passes: list[list[dict]]) -> dict:
    """End-to-end metrics, in unloaded-host seconds (see ``_scale``).

    Short bursts of host load are left out of makespan_s and job_p50_s by
    taking each job's best time over the passes.  job_tail_s is taken over
    every (job, pass) sample, so that at least ten samples lie beyond it
    and it is a real tail; set-up time is the median over every job start.
    """
    measured, _, _ = _times(passes, scaled=False)
    values, pct, n = _times(passes, scaled=True)
    ran = [r for p in passes for r in _ran(p)]
    jobs = len({r["id"] for r in ran})
    print(f"job_tail_s is p{pct:.1f} of {n} samples ({jobs} jobs, {len(passes)} passes)")
    print(f"measured, unscaled: {json.dumps(measured)}")
    return {**values, "peak_rss_mb": max(r["rss_mb"] for r in ran)}


def _aggregate(results: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    times: dict[str, float] = {}
    maxima: dict[str, float] = {}
    for r in _ran(results):
        t = r["trace"]
        for name, st in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += st[key]
        for name, v in t["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for name, v in t["times"].items():
            times[name] = times.get(name, 0.0) + v
        for name, v in t["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), v)
    job_s = sum(r["job_s"] for r in _ran(results))
    return {"spans": spans, "counts": counts, "times": times, "maxima": maxima, "job_s": job_s}


def _work_counts(result: dict) -> dict:
    """Everything in one traced job that must repeat exactly."""
    t = result["trace"]
    calls = {f"{name}.calls": st["calls"] for name, st in t["spans"].items()}
    return {**calls, **t["counts"], **{k: v for k, v in t["maxima"].items()}}


def layer_metrics(agg: dict, extra: dict) -> dict:
    spans, counts, times, maxima = agg["spans"], agg["counts"], agg["times"], agg["maxima"]

    def span(name: str, stat: str) -> float:
        return spans.get(name, {}).get(stat, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    pd_calls = span("exact.is_positive_definite", "calls")
    derived = {
        "alpha.solve_alpha.nodes_per_s": ratio(
            counts.get("alpha.solve_alpha.nodes", 0), span("alpha.solve_alpha", "s")
        ),
        "spectrum.theta.certify_per_call": ratio(
            counts.get("spectrum.theta.certify", 0), span("spectrum.lovasz_theta", "calls")
        ),
        "exact.is_positive_definite.accept_ratio": ratio(
            counts.get("exact.is_positive_definite.accepts", 0), pd_calls
        ),
        "trace.coverage": ratio(
            sum(st["self_s"] for st in spans.values()) - span("cli.run", "self_s"), agg["job_s"]
        ),
        **extra,
    }
    out = {}
    for metric in SPEC["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        prefix, _, stat = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif name in counts or name in maxima or name in times:
            value = counts.get(name, maxima.get(name, times.get(name)))
        elif stat in ("calls", "s", "self_s"):
            value = span(prefix, stat)
        else:
            value = 0
        out[name] = {"value": value, "unit": unit}
    return out


def _record(workload, args, jobs, passes) -> dict:
    import numpy
    import workloads

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    listing = [{"id": j["id"], "argv": j["argv"]} for j in jobs]
    digest = hashlib.sha256(json.dumps(listing, sort_keys=True).encode()).hexdigest()
    return {
        "workload": workload,
        "seed": args.seed,
        "graph_seed": workloads.GRAPH_SEED,
        "passes": passes,
        "jobs_sha256": digest,
        "jobs": listing,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "calibration_exponent": CALIBRATION_EXPONENT,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _traced(runner: Runner, jobs: list[dict]) -> tuple[list[list[dict]], dict, bool]:
    import spans

    plain = runner.run_pass(jobs, traced=False)
    first = runner.run_pass(jobs, traced=True)
    second = runner.run_pass(jobs, traced=True)
    deterministic = True
    again = {r["id"]: r for r in _ran(second)}
    for a in _ran(first):
        if a["id"] not in again:
            continue  # a failed job is already counted as failed
        ca, cb = _work_counts(a), _work_counts(again[a["id"]])
        for key in sorted(set(ca) | set(cb)):
            if ca.get(key) != cb.get(key):
                deterministic = False
                print(f"NONDETERMINISTIC {a['id']}: {key} {ca.get(key)} != {cb.get(key)}")
    print("determinism: every work count repeated" if deterministic else "determinism: MISMATCH")
    for r in _ran(first):
        if r["id"] == "alpha:C5^3":
            nodes = r["trace"]["counts"].get("alpha.solve_alpha.nodes")
            verdict = "reproduced" if nodes == ALPHA_C5_3_NODES else "differs from"
            print(f"alpha(C5^3): {nodes} nodes, {verdict} the baseline {ALPHA_C5_3_NODES}")
    agg1, agg2 = _aggregate(first), _aggregate(second)
    for name, st in agg1["spans"].items():  # times: median (mean) of the two traced passes
        for key in ("s", "self_s"):
            st[key] = (st[key] + agg2["spans"].get(name, {}).get(key, 0.0)) / 2
    for name in agg1["times"]:
        agg1["times"][name] = (agg1["times"][name] + agg2["times"].get(name, 0.0)) / 2
    agg1["job_s"] = (agg1["job_s"] + agg2["job_s"]) / 2
    overhead = statistics.median([_makespan(first), _makespan(second)]) / _makespan(plain) - 1
    calls = agg1["spans"]
    bypass = {
        "spectrum.*/exact.* calls": sum(
            st["calls"] for n, st in calls.items() if n.startswith(("spectrum.", "exact."))
        ),
        "alpha.solve_alpha calls": calls.get("alpha.solve_alpha", {}).get("calls", 0),
    }
    print(f"bypass counts: {bypass}")
    metrics = layer_metrics(agg1, {"trace.overhead": overhead, **spans.probes()})
    return [plain, first, second], metrics, deterministic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Job-level benchmark of the zecap CLI.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="shuffles job order, relabels graphs")
    parser.add_argument("--seconds", type=float, required=True, help="target measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zecap" / "__init__.py").is_file():
        print(f"zecap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = _clock() + RUN_LIMIT_S
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    jobs = workloads.build(args.workload, args.seed, WORKDIR)
    answers = json.loads(ANSWERS.read_text())["jobs"]
    runner = Runner(answers, deadline)
    n_passes = workloads.passes(args.workload, args.seconds)
    print(json.dumps({"record": _record(args.workload, args, jobs, n_passes)}))

    deterministic = True
    if args.trace:
        passes, metrics, deterministic = _traced(runner, jobs)
    else:
        passes = [runner.run_pass(jobs, traced=False) for _ in range(n_passes)]
        values = end_to_end(passes)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}
    detail = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps([[{k: v for k, v in r.items() if k != "trace"} for r in p] for p in passes]))
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r["problem"])
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
