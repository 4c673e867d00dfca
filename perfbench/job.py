"""Run one zecap CLI job in a fresh interpreter and print one JSON line.

Usage: python3 job.py <trace 0|1> <zecap arguments...>

The process first times a calibration kernel, before ``zecap`` is imported,
so that nothing of the program under test can move it.  The line it prints
carries the kernel time, the clock reading once ``zecap`` is imported (the
parent took one just before starting this process, so the difference less
the kernel time is the set-up time), the time from ``cli.run`` entry to the
report serialized the way ``cli.main`` does it, the exit code, the
serialized report, the peak resident set and, when traced, the layer
statistics.
"""

import json
import resource
import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """Time a fixed kernel of the program's kind of work: big-int bitmask
    loops, Fraction arithmetic and small symmetric eigendecompositions."""
    import numpy as np

    matrix = np.array([[((i * 7 + j * 3) % 11) / 11.0 for j in range(8)] for i in range(8)])
    start = time.perf_counter()
    mask = (1 << 256) - 1
    acc = 0
    for i in range(32_000):
        x = (mask >> (i % 200)) & (i * 0x9E3779B97F4A7C15)
        acc += (x & -x).bit_length() + x.bit_count()
    q = Fraction(0)
    for i in range(1, 400):
        q = q * Fraction(i, i + 1) + Fraction(1, i * i)
    for _ in range(60):
        np.linalg.eigh(matrix + matrix.T)
    return time.perf_counter() - start


def main() -> None:
    calibration_s = calibrate()
    import zecap.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    traced = sys.argv[1] == "1"
    argv = sys.argv[2:]
    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    start = time.perf_counter()
    code, report = zecap.cli.run(argv)
    text = json.dumps(report, indent=2, sort_keys=True)
    job_s = time.perf_counter() - start
    out = {
        "ready": ready,
        "calibration_s": calibration_s,
        "job_s": job_s,
        "code": code,
        "report": text,
        "zecap": zecap.__file__,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        out["trace"] = recorder.snapshot()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
