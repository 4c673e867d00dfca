"""Record the seed answers that ``check.py`` compares later runs against.

Usage, from the root of a checkout:  python3 perfbench/record.py

Runs one pass of every workload, checks each
answer for soundness without seed answers, and writes ``answers.json``.
Run it only at a commit whose answers are trusted: later runs fail on any
answer weaker than the one recorded here.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    run.WORKDIR.mkdir(exist_ok=True)
    runner = run.Runner({}, run._clock() + 3600)
    recorded = {}
    for workload in (w["name"] for w in run.SPEC["workloads"]):
        jobs = workloads.build(workload, 0, run.WORKDIR)
        for job, result in zip(jobs, runner.run_pass(jobs, traced=False)):
            if result["problem"]:
                return 1
            recorded[job["id"]] = {"graph": job["expect"].get("base"), "answer": result["summary"]}
    payload = {"graph_seed": workloads.GRAPH_SEED, "jobs": dict(sorted(recorded.items()))}
    run.ANSWERS.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"recorded {len(recorded)} answers in {run.ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
