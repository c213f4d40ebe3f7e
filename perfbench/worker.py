"""One workload pass in a fresh interpreter; prints its result as one JSON line.

Started by `run.py`, never by hand:

    python3 perfbench/worker.py ROOT WORKLOAD SEED TRACE SPAWNED WORKDIR [--setup-only] [--inject-mutant]

SPAWNED is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time covers interpreter start, `import cycmat` (and numpy)
and input generation, up to the first timed call.

Around the timed pass the worker times CALIBRATION_SLICES runs of a fixed
pure-Python loop before and after it, in this same process, so `run.py` can
measure the host's speed at the time of the pass (see `calibration_slice`).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

CALIBRATION_SLICES = 3  # before the pass, and again after it


def calibration_slice() -> float:
    """Seconds taken by a fixed amount of interpreter work that uses no cycmat code.

    Like the library it is Python-level integer bit arithmetic, calls, small
    tuples and dictionary look-ups and inserts over a working set of a few
    MiB.  Its time moves with the host's speed but not with any change to
    cycmat; it took 0.1 to 0.2 s on the machine recorded in `baseline.json`.
    """
    memo: dict[int, tuple[int, int]] = {}
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        key = ((i & (i - 1)) ^ (i >> 3)) * 40503 & 0xFFFF
        hit = memo.get(key)
        if hit is None:
            memo[key] = hit = (key, bin(key).count("1"))
        acc += hit[1]
    return time.perf_counter() - start


def main(argv: list[str]) -> None:
    root, workload, seed, trace, spawned, workdir = argv[:6]
    flags = set(argv[6:])
    sys.path.insert(0, os.path.join(root, "src"))
    import cycmat

    if not os.path.abspath(cycmat.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"cycmat imported from {cycmat.__file__}, not from this checkout")
    import workloads

    cls = workloads.WORKLOADS[workload]
    kwargs = {"inject_mutant": True} if "--inject-mutant" in flags else {}
    wl = cls(int(seed), workdir, **kwargs)
    first_call = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"setup_s": first_call - float(spawned)}
    if "--setup-only" in flags:
        print(json.dumps(result))
        return

    calibration = [calibration_slice() for _ in range(CALIBRATION_SLICES)]
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    latencies = wl.run()
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux; read before grading so only the pass counts
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        # beside the pass's scratch directory, which is removed after the pass
        tracer.write(os.path.join(os.path.dirname(workdir), f"trace-{workload}-seed{seed}-pid{os.getpid()}.json"))
    calibration += [calibration_slice() for _ in range(CALIBRATION_SLICES)]
    grade = wl.grade()
    result.update(
        wall_s=wall,
        calibration_s=calibration,
        latencies=latencies,
        attempted=grade.attempted,
        failures=grade.failures,
        digest=grade.digest,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
