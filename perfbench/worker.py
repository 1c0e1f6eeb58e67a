"""One set-up and one timed pass of a workload, in a fresh interpreter.

run.py starts one of these per pass, so that no cache inside the library
survives from one pass to the next (users of ``openpoint suite`` pay for a
cold process on every run) and peak RSS belongs to one pass.  The last
line of standard output is one JSON object with the pass's figures.

    python3 perfbench/worker.py --workload pairs --seed 0 [--trace] [--setup-only]
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pace import Pace  # noqa: E402

SETUP_PACE = Pace(probes=3)  # set-up time runs from here, before anything else is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    setup, run_pass = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix="_work-", dir=HERE)
    try:
        inputs = setup(args.seed, workdir)
        _, _, raw_setup, setup_s = SETUP_PACE.finish()
        report = {"setup_s": setup_s, "raw_setup_s": raw_setup}
        if not args.setup_only:
            tracer = inst = None
            if args.trace:
                from tracing import Tracer, install

                tracer = Tracer()
                inst = install(tracer)
            pace = Pace()
            result = run_pass(inputs, pace, tracer)
            raw_latencies, latencies, raw_wall, wall_s = pace.finish()
            if inst is not None:
                inst.remove()
            report.update(
                wall_s=wall_s,
                raw_wall_s=raw_wall,
                latencies=latencies,
                raw_latencies=raw_latencies,
                attempted=result.attempted,
                failed=result.failed,
                problems=result.problems,
                digest=result.digest,
                peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
            if tracer is not None:
                layers = tracer.metrics()
                layers.update(result.extra)
                layers["bench.top_spans_s"] = tracer.top_s
                scale = wall_s / raw_wall  # span times get the pass's speed scaling too
                report["layers"] = {
                    k: v * scale if k.endswith(("_s", ".s")) else v for k, v in layers.items()
                }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
