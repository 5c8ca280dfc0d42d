"""One benchmark pass in a fresh process: set-up, searches, checks.

Usage: python3 worker.py PASS_SPEC.json

The spec (written by run.py) names the workload, its derived inputs and
where to write the pass result.  The clock starts before ``import evonas``;
set-up ends at the first search call; the timed part ends with the last
output.  Times are calibrated for machine speed (see speed.py); the wall
times are kept beside them.  Output checks and digests run after the clock
stops.
"""

from speed import SpeedClock

CLOCK = SpeedClock()  # the pass starts here, before any other import

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def run_pass(spec: dict) -> dict:
    import envinfo
    import workloads
    from tracer import Tracer

    CLOCK.mark("setup")
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(workloads.conv_flop)
        CLOCK.excluded = lambda: tracer.excluded_s
        CLOCK.on_kernel = tracer.shift
        tracer.active = True
    work = workloads.make(spec, CLOCK)
    work.setup()
    if spec["setup_only"]:
        return {"setup_s": CLOCK.calibrated_s("setup"), "wall": {"setup_s": CLOCK.wall_s("setup")}}
    work.search()
    CLOCK.mark("search")
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.active = False
    checks = work.check(spec["full_check"])
    facts = {label: f for label, (_, f) in checks.items()}
    setup_s, search_s = CLOCK.calibrated_s("setup"), CLOCK.calibrated_s("search")
    wall_setup_s, wall_search_s = CLOCK.wall_s("setup"), CLOCK.wall_s("search")
    result = {
        "setup_s": setup_s,
        "search_s": search_s,
        "total_s": setup_s + search_s,
        "wall": {"setup_s": wall_setup_s, "search_s": wall_search_s, "total_s": wall_setup_s + wall_search_s},
        "kernel_s": CLOCK.kernel_samples(),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "counts": work.counts(),
        "score_s": getattr(work, "score_s", []),
        "errors": {label: err for label, (err, _) in checks.items()},
        "quality": work.quality(facts),
        "emitted_bytes": work.emitted_bytes(),
        "digest": work.digest(),
    }
    if spec["full_check"]:
        result["env"] = envinfo.collect()
    if tracer is not None:
        result["trace"] = {
            "totals": tracer.totals(),
            "spans": tracer.span_table(),
            "probe": tracer.probe,
            "sentinels": tracer.sentinels,
            "conv_flop": tracer.conv_flop,
        }
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    try:
        result = run_pass(spec)
    except Exception:  # the pass boundary: report, let run.py count the failure
        result = {"crash": traceback.format_exc()}
    Path(spec["result_path"]).write_text(json.dumps(result), "utf-8")
    return 0 if "crash" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
