"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter, so patched modules do not leak into other tests."""
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{BENCH}", "PATH": "/usr/bin:/bin"}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)


def test_install_patches_every_required_site():
    proc = _fresh(
        "import json, spans\n"
        "print(json.dumps(spans.install(spans.Recorder())))\n"
    )
    assert proc.returncode == 0, proc.stderr
    patched = {tuple(site) for site in json.loads(proc.stdout)}
    missing = [site for site in spans.REQUIRED_SITES if site not in patched]
    assert not missing, f"names no longer bound where the trace expects them: {missing}"


def test_traced_calls_reach_the_recorder():
    proc = _fresh(
        "import json, spans\n"
        "rec = spans.Recorder(); spans.install(rec)\n"
        "import zecap.cli\n"
        "zecap.cli.run(['squeeze', '--graph', 'C5', '--K', '4'])\n"
        "print(json.dumps(rec.snapshot()))\n"
    )
    assert proc.returncode == 0, proc.stderr
    snap = json.loads(proc.stdout)
    assert snap["spans"]["decide.squeeze_capacity"]["calls"] == 1
    assert snap["spans"]["alpha.ladder"]["calls"] >= 1  # bound in decide as alpha_ladder
    assert snap["counts"]["decide.squeeze_capacity.theta_calls"] >= 1
    assert snap["counts"]["spectrum.theta.admm_iterations"] > 0
    assert snap["counts"]["spectrum.theta.certify"] > 0


def test_missing_layer_fails_loudly():
    proc = _fresh(
        "import zecap.cli, zecap.decide, spans\n"
        "del zecap.decide.squeeze_capacity\n"
        "spans.install(spans.Recorder())\n"
    )
    assert proc.returncode != 0
    assert "decide.squeeze_capacity" in proc.stderr


def test_every_listed_workload_builds():
    for workload in run.SPEC["workloads"]:
        jobs = workloads.build(workload["name"], 0, ROOT / ".bench_work")
        assert jobs and workloads.passes(workload["name"], run.SPEC["run_seconds"]) >= 2


def test_tail_has_ten_samples_beyond_it():
    value, pct = run._tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and sum(1 for i in range(1, 31) if i > value) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_same_seed_same_inputs():
    a = workloads.build("theta-random", 5, ROOT / ".bench_work")
    b = workloads.build("theta-random", 5, ROOT / ".bench_work")
    c = workloads.build("theta-random", 6, ROOT / ".bench_work")
    assert a == b
    assert [j["argv"] for j in a] != [j["argv"] for j in c]


def _job(kind, argv, **expect):
    return {"id": "t", "argv": argv, "kind": kind, "expect": expect}


def _report(results):
    return {"results": results}


def test_check_rejects_unsound_and_weaker_answers():
    alpha = _job("alpha", ["alpha", "--graph", "C5"], known=2)
    assert check.check(alpha, 0, _report({"alpha": 2, "witness": [0, 2]}), None) is None
    assert "witness" in check.check(alpha, 0, _report({"alpha": 2, "witness": [0, 1]}), None)
    budget = _report({"error": "stop", "kind": "budget"})
    assert "seed gave 0" in check.check(alpha, 3, budget, {"code": 0, "alpha": 2})
    assert check.check(alpha, 3, budget, {"code": 3, "alpha": None}) is None

    theta = _job("theta", ["theta-sdp", "--graph", "C5", "--tol", "1e-4"], closed="C5")
    assert check.check(theta, 0, _report({"lo": "2236/1000", "hi": "22361/10000"}), None) is None
    assert "misses" in check.check(theta, 0, _report({"lo": "2237/1000", "hi": "22371/10000"}), None)

    squeeze = _job("interval", ["squeeze", "--graph", "C5", "--K", "4"], graph="C5")
    seed = {"code": 0, "status": "Value", "width": "1/100"}
    ok = _report({"status": "Value", "lower": "2236/1000", "upper": "2237/1000"})
    wide = _report({"status": "Value", "lower": "2/1", "upper": "2237/1000"})
    assert check.check(squeeze, 0, ok, seed) is None
    assert "wider" in check.check(squeeze, 0, wide, seed)

    decide = _job("decide", ["decide-gt", "--graph", "C5", "--lambda", "sqrt(5)"], truth=False)
    halted = _report({"status": "Halted", "certificate": {}})
    assert "false threshold" in check.check(decide, 0, halted, None)
    assert "exit code 4" in check.check(decide, 4, _report({"error": "x"}), None)
