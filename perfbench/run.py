"""cycmat benchmark: one workload, measured for a fixed time, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cycmat from `src/` there.
Every workload pass runs in a fresh interpreter (`worker.py`) with the
numpy/BLAS thread pools pinned to one thread, so module-level caches and the
peak RSS belong to one pass.  Passes start one after another until the next
one would end after `--seconds`; at least one always runs.  Extra set-up-only
starts give `setup_s` more samples.

The host's speed drifts by up to a third over minutes on a shared machine,
which no run of a minute can average out.  So every pass also times a fixed
calibration loop in its own process just before and after the pass, and
the time metrics of `--trace 0` are normalised to a reference speed: a
pass's `*_norm_*` time is its measured time times REFERENCE_SLICE_S over
the mean of its calibration slices, that is, the time it would take on a
host where one slice takes REFERENCE_SLICE_S; the metric is the median over
passes.  `setup_s` (its name is fixed by the benchmark contract) is scaled
by the run's median slice, since set-up-only starts have no slices.  The measured values
print on the human-readable lines.  The per-layer times are measured values.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json.  `--trace 1`
alternates untraced and traced passes and prints the per-layer metrics
(medians over the traced passes) plus `trace.overhead_s`, the traced minus
the untraced median pass time.  Every pass of a run must give identical
answers, traced or not.

Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 0 when every answer is right, 1 when one is
wrong (the result still prints), 2 when the benchmark cannot run at all.
`--inject-mutant` (suite-14 only) adds the suite's deliberately broken
circuit family, to show that a wrong answer is caught.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("suite-14", "orderings", "cli-mix", "refute")
SETUP_PROBES = 5
REFERENCE_SLICE_S = 0.1  # one calibration slice at the reference speed
PASS_TIMEOUT_S = 170
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, trace: bool, flags: list[str]) -> dict:
    """Run one pass (or set-up probe) in a fresh interpreter."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in THREAD_PINS})
    try:
        spawned = now()
        proc = subprocess.run(
            [sys.executable, WORKER, ROOT, workload, str(seed), "1" if trace else "0",
             repr(spawned), workdir, *flags],
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["spawn_s"] = now() - spawned
    return result


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(args) -> tuple[list[dict], list[dict], list[float]]:
    """Untraced passes, traced passes and set-up samples for one run."""
    flags = ["--inject-mutant"] if args.inject_mutant else []
    deadline = now() + args.seconds
    setups = [spawn(args.workload, args.seed, False, flags + ["--setup-only"])["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    last = {}  # spawn time of the latest pass of each kind
    while True:
        kind = bool(args.trace) and len(traced) < len(plain)  # traced passes alternate
        result = spawn(args.workload, args.seed, kind, flags)
        (traced if kind else plain).append(result)
        setups.append(result["setup_s"])
        last[kind] = result["spawn_s"]
        upcoming = bool(args.trace) and len(traced) < len(plain)
        if (traced or not args.trace) and now() + last.get(upcoming, last[kind]) > deadline:
            return plain, traced, setups


def pass_scale(result: dict) -> float:
    """Measured time -> reference time, from the pass's own calibration slices."""
    return REFERENCE_SLICE_S / statistics.mean(result["calibration_s"])


def measured(plain: list[dict], setups: list[float]) -> dict[str, float]:
    """Medians over the untraced passes (and set-up samples), in measured time."""
    per_pass = [p["latencies"] for p in plain]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "req_p50_ms": statistics.median(1000 * quantile(lat, 0.5) for lat in per_pass),
        "req_p90_ms": statistics.median(1000 * quantile(lat, 0.9) for lat in per_pass),
        "req_per_s": statistics.median(len(p["latencies"]) / p["wall_s"] for p in plain),
        "calibration_slice_s": statistics.median(c for p in plain for c in p["calibration_s"]),
    }


def end_to_end(plain: list[dict], setups: list[float]) -> dict[str, float]:
    """Medians over the untraced passes, each pass in reference time by its own
    calibration; set-up samples by the run's median slice."""
    scales = [pass_scale(p) for p in plain]
    run_scale = REFERENCE_SLICE_S / statistics.median(c for p in plain for c in p["calibration_s"])
    return {
        "setup_s": statistics.median(setups) * run_scale,
        "wall_norm_s": statistics.median(p["wall_s"] * k for p, k in zip(plain, scales)),
        "req_p50_norm_ms": statistics.median(1000 * quantile(p["latencies"], 0.5) * k
                                             for p, k in zip(plain, scales)),
        "req_p90_norm_ms": statistics.median(1000 * quantile(p["latencies"], 0.9) * k
                                             for p, k in zip(plain, scales)),
        "req_norm_per_s": statistics.median(len(p["latencies"]) / (p["wall_s"] * k)
                                            for p, k in zip(plain, scales)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mutant", action="store_true")
    args = parser.parse_args(argv)
    if args.inject_mutant and args.workload != "suite-14":
        parser.error("--inject-mutant applies to suite-14 only")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(ROOT, "src", "cycmat", "__init__.py")):
            raise BenchError(f"no cycmat sources under {os.path.join(ROOT, 'src')}")
        plain, traced, setups = measure(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    if len({p["digest"] for p in passes}) > 1:
        failures.append("passes of one seed gave different answers")
    attempted = sum(p["attempted"] for p in passes)
    failed = min(len(failures), attempted)

    values = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced"
          f" + {len(traced)} traced  set-up samples {len(setups)}"
          f"  requests per pass {len(plain[0]['latencies'])}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in measured(plain, setups).items():
        print(f"  measured {name:<35} {value:>14.6g}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} ratio ({failed} of {attempted} operations)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
