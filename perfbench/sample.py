"""One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N --trace 0|1

Runs the workload once and prints one JSON object as its last line.  The
driver (``run.py``) starts one of these per sample, so no process-level
cache of the program survives from one sample to the next and the
reported set-up time is a cold number.  ``setup_s`` is the process CPU
time at the first timed op, so it includes interpreter start-up.
"""

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(tracing.Tracer(), extra_modules=("scenarios",))
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    result = scenarios.run(args.workload, args.seed, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, result["ops"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
