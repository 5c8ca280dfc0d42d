"""Self-test of the benchmark at minimal size.

Usage (from the repository root): python3 benchmarks/selftest.py

For each workload it runs the benchmark twice untraced and once traced,
all with one seed, and checks that every metric named in BENCHMARK.json
appears with its unit, that the traced per-layer self times sum to no more
than the traced total_s, and that all three runs give one results digest.
It also checks that the benchmark fails, without printing a result, in a
copy that holds only BENCHMARK.json and the benchmark's own files.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int, root: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def check_workload(workload: str, spec: dict) -> list:
    problems = []
    digests = []
    for trace in (0, 0, 1):
        code, out = run(workload, trace)
        if code != 0:
            problems.append(f"{workload} trace {trace}: exit code {code}\n{out}")
            continue
        last = json.loads(out.strip().splitlines()[-1])
        if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{workload} trace {trace}: result keys {sorted(last)}")
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        for m in wanted:
            got = last["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                problems.append(f"{workload} trace {trace}: metric {m['name']} missing or without unit {m['unit']}")
        if set(last["metrics"]) != {m["name"] for m in wanted}:
            problems.append(f"{workload} trace {trace}: unexpected metrics")
        report = json.loads((ROOT / ".bench_results" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
        digests.append(report["digest"])
        for p in report["passes"]:
            if p["traced"]:
                self_sum = sum(v[2] for v in p["trace"]["totals"].values())
                if not self_sum <= p["wall"]["total_s"]:
                    problems.append(f"{workload}: self times {self_sum:.4f} s exceed traced total "
                                    f"{p['wall']['total_s']:.4f} s")
    if len(set(digests)) != 1 or None in digests:
        problems.append(f"{workload}: runs with seed {SEED} gave digests {digests}")
    return problems


def check_bare_copy() -> list:
    """Without the program next to it, the benchmark must fail and print no result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run(spec["workloads"][0]["name"], 0, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or '"correct"' in out:
        return [f"bare copy: exit code {code}, output {out!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_copy()
    for w in spec["workloads"]:
        found = check_workload(w["name"], spec)
        print(f"{w['name']}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p)
    print("selftest", "passed" if not problems else "failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
