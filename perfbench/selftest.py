"""Shows that the benchmark's correctness gates catch wrong answers.

    python3 perfbench/selftest.py

1. A `suite-14` run with the suite's injected mutant circuit family must
   report a non-zero fail ratio, `correct: false` and exit code 1.
2. `cli-mix` outcome checks work in both directions: after a real pass,
   shifting every exit code (0 -> 1, 1 -> 2, 2 -> 0) must fail every request,
   and corrupting any rank answer must fail that request.
3. A wrong ledger size in a `refute` answer must fail that point.

Exits 0 when every gate caught its wrong answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def mutant_run() -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "suite-14", "--seed", "1",
         "--seconds", "1", "--inject-mutant"],
        capture_output=True, text=True, cwd=ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if proc.returncode != 1:
        problems.append(f"mutant run exited {proc.returncode}, expected 1")
    if result["correct"] or not result["failed"] or not result["failed"] / result["attempted"] > 0:
        problems.append(f"mutant run not flagged: {result}")
    return problems


def cli_outcomes(workdir: str) -> list[str]:
    import workloads

    mix = workloads.CliMix(1, workdir)
    mix.run()
    if mix.grade().failures:
        return [f"genuine cli-mix pass failed: {mix.grade().failures[:3]}"]
    genuine = list(mix.outputs)
    codes = {code for code, _ in genuine}
    problems = [] if codes == {0, 1, 2} else [f"cli-mix exit codes {codes}, expected 0, 1 and 2"]

    mix.outputs = [((code + 1) % 3, text) for code, text in genuine]
    caught = len(mix.grade().failures)
    if caught != len(mix.requests):
        problems.append(f"shifted exit codes: {caught} of {len(mix.requests)} requests caught")

    corrupted = 0
    for i, (code, text) in enumerate(genuine):
        if code == 0 and '"rank"' in text:
            out = json.loads(text)
            out["rank"] += 1
            mix.outputs = genuine[:i] + [(code, json.dumps(out))] + genuine[i + 1:]
            corrupted += 1
            if len(mix.grade().failures) != 1:
                problems.append(f"corrupted rank answer of {mix.requests[i].argv[0]} not caught")
    if not corrupted:
        problems.append("no rank answer to corrupt")
    return problems


def refute_outcome(workdir: str) -> list[str]:
    import workloads

    refute = workloads.Refute(1, workdir)
    refute.points = [(16, 4)]
    refute.run()
    code, text = refute.outputs[0]
    out = json.loads(text)
    out["ledger"]["entries"] += 1
    refute.outputs = [(code, json.dumps(out))]
    return [] if len(refute.grade().failures) == 1 else ["wrong ledger size not caught"]


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    problems = []
    for name, check in (("mutant suite-14", mutant_run), ("cli-mix outcomes", cli_outcomes),
                        ("refute ledger", refute_outcome)):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest-") as workdir:
            found = check() if check is mutant_run else check(workdir)
        print(f"{'FAIL' if found else 'PASS'} {name}")
        problems += found
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
