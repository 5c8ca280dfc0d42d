"""Write reference_scores.json: fixed (arch, init stream) scorings per skeleton.

Usage: python3 benchmarks/make_reference.py

Run only when the scores are meant to change; the benchmark's output
checks compare every net workload's scorings of these architectures
against the stored values to 1e-9 relative error.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        doc = {name: workloads.reference_scorings(name, Path(tmp)) for name in workloads.REFERENCE_ARCHS}
    workloads.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    main()
