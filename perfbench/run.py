"""The repository benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``nginx_c1k``, ``sqlite_dbt2_fs``, ``attack_replay`` (see
NOTES.md for why each exists and what each layer metric should move).

The command takes samples one at a time until ``--seconds`` are used
(at least :data:`MIN_SAMPLES`).  Each sample is a fresh interpreter
(``sample.py``) given the same seed, so the same inputs: host metrics are
medians across samples, and the modelled ``sim_*`` metrics must agree
exactly across them.  With ``--trace 1`` untraced and traced samples
alternate; the metrics are the per-layer ones from the traced samples,
plus the tracing overhead measured against the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every op of every sample was correct; a sample that crashes
ends the command with another code and no result line.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import tracing
from summary import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("nginx_c1k", "sqlite_dbt2_fs", "attack_replay")

#: end-to-end metrics: (name, unit)
END_TO_END = (
    ("ops_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_pct", "%"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_lat_p50_cycles", "cycles"),
    ("sim_lat_tail_cycles", "cycles"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
)

MIN_SAMPLES = 3
#: never start a sample expected to end after this many seconds
HARD_LIMIT_S = 150.0


class SampleError(RuntimeError):
    """A sample process failed to produce a result."""


def run_sample(workload, seed, traced, timeout):
    """Run one fresh-interpreter sample; returns its decoded result."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "sample.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise SampleError("sample exceeded %.0f s" % timeout) from None
    if proc.returncode != 0:
        raise SampleError(
            "sample exited %d:\n%s" % (proc.returncode, proc.stderr[-2000:])
        )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SampleError("sample printed no result:\n%s" % proc.stderr[-2000:]) from None
    result["traced"] = traced
    return result


def take_samples(workload, seed, seconds, trace):
    """Samples until ``seconds`` are used; traced ones alternate when
    ``trace`` is set.  Sample durations are tracked per kind so the next
    one is started only if it is expected to fit."""
    start = time.monotonic()
    samples = []
    durations = {False: [], True: []}
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        before = time.monotonic()
        timeout = HARD_LIMIT_S + 20 - (before - start)
        samples.append(run_sample(workload, seed, traced, timeout))
        durations[traced].append(time.monotonic() - before)
        elapsed = time.monotonic() - start
        nxt = bool(trace) and len(samples) % 2 == 1
        expect = max(durations[nxt] or durations[not nxt])
        enough = len(samples) >= (2 if trace else MIN_SAMPLES)
        if enough and elapsed + expect > seconds:
            break
        if elapsed + expect > HARD_LIMIT_S:
            if not enough:
                raise SampleError("too slow: %d samples in %.0f s" % (len(samples), elapsed))
            break
    return samples


def end_to_end(samples):
    """The end-to-end metric values from the untraced samples."""
    plain = [s for s in samples if not s["traced"]]
    values = {
        "ops_per_cpu_s": median([s["ops_per_cpu_s"] for s in plain]),
        "setup_s": median([s["setup_s"] for s in plain]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
        "op_ms_p50": median([s["op_ms"]["p50"] for s in plain]),
        "op_ms_tail": median([s["op_ms"]["tail"] for s in plain]),
    }
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    values["completed_pct"] = 100.0 * (attempted - failed) / attempted
    sim = samples[0]["sim"]
    for key in ("sim_cycles_per_op", "sim_lat_p50_cycles", "sim_lat_tail_cycles"):
        values[key] = sim[key]
    return values


def per_layer(samples):
    """Median of each layer metric over the traced samples, plus the
    tracing overhead: untraced against traced ``ops_per_cpu_s``."""
    traced = [s for s in samples if s["traced"]]
    names = traced[0]["layers"].keys()
    values = {k: median([s["layers"][k] for s in traced]) for k in names}
    plain = median([s["ops_per_cpu_s"] for s in samples if not s["traced"]])
    with_trace = median([s["ops_per_cpu_s"] for s in traced])
    values["trace.overhead_pct"] = 100.0 * (plain / with_trace - 1.0)
    return values


def check(samples):
    """Every error any sample reported, plus sim_* disagreements."""
    errors = []
    for i, s in enumerate(samples):
        errors.extend("sample %d: %s" % (i, e) for e in s["errors"])
    first = samples[0]["sim"]
    for i, s in enumerate(samples[1:], 1):
        if s["sim"] != first:
            errors.append(
                "sample %d: sim_* %r differ from sample 0 %r" % (i, s["sim"], first)
            )
    return errors


def report(workload, seed, samples, values, units, errors):
    """Human-readable lines: every metric by name with its unit."""
    lines = [
        "workload %s, seed %d: %d samples (%d traced), each a fresh interpreter"
        % (workload, seed, len(samples), sum(s["traced"] for s in samples))
    ]
    sim = samples[0]["sim"]
    for name in units:
        value = values[name]
        note = ""
        if name == "sim_lat_tail_cycles":
            note = "  (p%g of %d)" % (sim["sim_lat_tail_pct"], sim["sim_lat_count"])
        elif name == "op_ms_tail":
            op = samples[0]["op_ms"]
            note = "  (p%g of %d per sample)" % (op["tail_pct"], op["count"])
        lines.append("  %-48s %14.6g %s%s" % (name, value, units[name], note))
    plain = [s for s in samples if not s["traced"]]
    lines.append(
        "  per-sample ops_per_cpu_s: %s"
        % ", ".join("%.2f" % s["ops_per_cpu_s"] for s in plain)
    )
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    lines.append("  failed_pct %.4f %% (%d of %d ops)" % (100.0 * failed / attempted, failed, attempted))
    for error in errors[:20]:
        lines.append("  ERROR " + error)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("no program sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        samples = take_samples(args.workload, args.seed, args.seconds, args.trace)
    except SampleError as err:
        print(str(err), file=sys.stderr)
        return 3

    errors = check(samples)
    e2e_units, layer_units = dict(END_TO_END), dict(tracing.PER_LAYER)
    e2e = end_to_end(samples)
    if args.trace:
        values, units = per_layer(samples), layer_units
        shown = dict(e2e, **values)
        shown_units = dict(e2e_units, **layer_units)
    else:
        values, units = e2e, e2e_units
        shown, shown_units = values, units
    for line in report(args.workload, args.seed, samples, shown, shown_units, errors):
        print(line)
    correct = not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(s["attempted"] for s in samples),
                "failed": sum(s["failed"] for s in samples),
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
