"""The persisted performance trajectory (``BENCH_<pr>.json``).

Every PR that touches a hot path lands a ``BENCH_<pr>.json`` at the repo
root: one byte-stable snapshot of wall-time and cycles-per-request over a
pinned workload matrix (nginx + concurrent wrk, steady state, workers
1/2/4, vanilla vs full BASTION vs the three filtering software baselines).
CI diffs the fresh measurement against the newest committed snapshot, so
wall-clock regressions and wins stay visible across the PR sequence.

Since PR 7 the snapshot carries a second, event-driven matrix: one
NGINX worker multiplexing 100 / 1k / 10k keep-alive connections through
``epoll_wait`` (``NginxConfig(event_loop=True)``), the C10k cell set.
Event cells are keyed by connection count rather than worker count and
additionally record p50/p95 latency, MB/s, and the peak in-flight
connection level actually sustained.  Two extra 10k cells pin the
verdict-cache economics (cache_on vs cache_off) at full pressure.

Since PR 10 the blocking matrix also carries the ``sfip`` and
``sfip_origin`` rows, so BASTION vs SFIP vs the filtering baselines is
one overhead table.

Byte-stability is the hard part — wall clocks are noisy.  Three
mechanisms make the file reproducible:

- **CPU-time clock.**  The default clock is ``time.process_time`` — this
  process's CPU seconds — so other tenants of a shared machine cannot
  perturb the measurement; garbage is collected before every repeat so
  GC pauses from earlier work are not charged to a cell.
- **Calibrated wall index.**  Cell time is stored as a ratio against a
  pure-Python spin loop timed on the same interpreter and machine
  (``wall_index = cell_time / spin_time``, min-of-repeats for both, the
  spin timed both before and after the matrix).  The spin is
  deliberately *not* VM-based: interpreter-level wins in the VM must
  show up in the index, not cancel out.  The ratio is machine-speed
  invariant to first order, so snapshots written on different hardware
  stay comparable.
- **Sticky rewrite.**  ``--write`` keeps the previously-committed
  ``wall_index`` for any cell whose deterministic fields are unchanged
  and whose fresh index is within ``STICKY_PCT`` — measurement noise
  never dirties the file, so two consecutive writes are byte-identical.
  ``--check`` always compares the *raw* fresh index, so stickiness can
  not mask a regression beyond the check tolerance.

Everything else in a cell (cycles, work units, latency percentiles) comes
from the deterministic cost model and is exact by construction.
"""

import gc
import json
import math
import os
import time

#: this PR's snapshot number (bump per hot-path PR, one file each)
PR_NUMBER = 10

SCHEMA = "repro-bench-trajectory/v1"

#: the pinned matrix — changing any of these starts a new trajectory
TRAJECTORY_APP = "nginx"
TRAJECTORY_SCALE = 0.3
MATRIX_WORKERS = (1, 2, 4)
MATRIX_CONFIGS = (
    "vanilla",
    "cet_ct_cf_ai",
    "seccomp_allowlist",
    "temporal",
    "debloat",
    "sfip",
    "sfip_origin",
)

#: the event-loop (C10k) matrix: concurrent keep-alive connections
#: multiplexed by ONE epoll-driven worker, crossed with the configs that
#: exercise distinct fast-path regimes.  The two extra 10k cells pin the
#: verdict-cache claim (cache_on must beat cache_off under pressure).
EVENT_CONNECTIONS = (100, 1000, 10000)
EVENT_CONFIGS = ("vanilla", "cet_ct_cf_ai", "seccomp_allowlist")
EVENT_MATRIX = tuple(
    (count, config) for count in EVENT_CONNECTIONS for config in EVENT_CONFIGS
) + ((10000, "cache_on"), (10000, "cache_off"))
#: the CI gate only re-measures the cheap cells; 1k/10k stay write-only
EVENT_SMOKE_MATRIX = tuple((100, config) for config in EVENT_CONFIGS)
#: requests each connection pipelines before closing
EVENT_REQUESTS = 2
#: wall repeats per event cell — the 10k cells run tens of seconds each,
#: so repeats taper with pressure (stickiness absorbs the extra noise)
EVENT_REPEATS = {100: 5, 1000: 3, 10000: 2}

#: the fuzz-throughput cell: one pinned campaign (genomes/sec at the CI
#: smoke budget); write-only like the 1k/10k event cells — the --check
#: gate skips it, so it diffs as a "cell removed" note and never fails
FUZZ_BUDGET = 200

#: the trajectory clock: CPU seconds of this process (contention-immune)
DEFAULT_CLOCK = time.process_time

#: wall repeats per cell / per calibration (min is taken)
REPEATS = 5
#: pure-Python calibration spin iterations (~50ms on current interpreters;
#: long enough that a scheduling hiccup cannot dominate the min-of-repeats)
SPIN_ITERATIONS = 1_000_000
#: --write keeps the committed wall_index when the fresh one is this close.
#: Wide on purpose: the wins worth recording are multiples, residual
#: measurement noise is tens of percent, and the --check gate always uses
#: the raw (un-sticky) measurement anyway.
STICKY_PCT = 35.0
#: --check fails on a wall_index regression beyond this (percent)
DEFAULT_TOLERANCE = 5.0
#: --check re-measures regressed cells this many times before failing.
#: The wall estimator is a min, so retries only converge it downward —
#: a genuine regression cannot be retried away, a noise spike can.
CHECK_RETRIES = 2


def _spin(iterations=SPIN_ITERATIONS):
    """The calibration workload: pure interpreter, no VM, no allocation."""
    acc = 0
    for i in range(iterations):
        acc += i & 7
    return acc


def calibrate(clock=DEFAULT_CLOCK, repeats=REPEATS):
    """Seconds per calibration spin (min over ``repeats`` runs)."""
    best = None
    for _ in range(repeats):
        gc.collect()
        start = clock()
        _spin()
        elapsed = clock() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _round_sig(value, digits=2):
    """Round to ``digits`` significant digits (the wall_index precision)."""
    if value <= 0:
        return 0.0
    return float("%.*g" % (digits, value))


def _measure_cell(workers, config, scale, clock):
    """One matrix cell: deterministic run fields + min-of-repeats wall."""
    from repro.apps.nginx import NginxConfig
    from repro.apps.workloads import ConcurrentWrkWorkload
    from repro.bench.harness import run_app
    from repro.sched import DEFAULT_QUANTUM

    connections = max(int(round(40 * scale)), 4)
    best_wall = None
    result = None
    for _ in range(REPEATS):
        workload = ConcurrentWrkWorkload(connections=connections)
        gc.collect()
        start = clock()
        result = run_app(
            TRAJECTORY_APP,
            config=config,
            app_config=NginxConfig(workers=workers, master_serves=False),
            workload=workload,
            quantum=DEFAULT_QUANTUM,
        )
        elapsed = clock() - start
        if best_wall is None or elapsed < best_wall:
            best_wall = elapsed
    return result, best_wall


#: per-cell fields that must be exactly reproducible run-to-run.
#: Compared with ``.get`` so blocking cells (which lack the event-only
#: fields) and pre-PR-7 snapshots (which lack ``mode``) stay comparable.
_DETERMINISTIC_FIELDS = (
    "config",
    "mode",
    "workers",
    "connections",
    "status",
    "work_units",
    "total_cycles",
    "steady_cycles",
    "cycles_per_request",
    "p50_latency_cycles",
    "p95_latency_cycles",
    "p99_latency_cycles",
    "mbps",
    "peak_inflight",
    "syscalls",
)


def measure_cells(
    workers=MATRIX_WORKERS,
    configs=MATRIX_CONFIGS,
    scale=TRAJECTORY_SCALE,
    clock=DEFAULT_CLOCK,
    calibration=None,
):
    """The trajectory records: one dict per (workers, config) cell.

    This is also the data surface behind :func:`repro.api.bench` — the
    returned dicts are exactly what ``BENCH_<pr>.json`` serializes.
    ``calibration`` (seconds per spin) is injectable for tests; ``clock``
    likewise.  ``configs`` entries may be names from
    ``bench.harness.CONFIGS`` or DefenseConfig objects.
    """
    fixed_calibration = calibration is not None
    if not fixed_calibration:
        calibration = calibrate(clock=clock)
    raw = []
    for count in workers:
        for config in configs:
            result, wall = _measure_cell(count, config, scale, clock)
            raw.append((count, config, result, wall))
    if not fixed_calibration:
        # the spin drifts with machine state; bracket the matrix and keep
        # the fastest observation on either side
        calibration = min(calibration, calibrate(clock=clock))
    cells = []
    for count, config, result, wall in raw:
        work = result.work_units
        cells.append(
            {
                "config": config if isinstance(config, str) else config.name,
                "workers": count,
                "status": result.status.kind,
                "work_units": work,
                "total_cycles": result.total_cycles,
                "steady_cycles": result.steady_cycles,
                "cycles_per_request": (
                    round(result.steady_cycles / work, 1) if work else 0.0
                ),
                "p99_latency_cycles": result.latency.get("p99", 0),
                "syscalls": sum(result.syscall_counts.values()),
                "wall_index": _round_sig(wall / calibration),
            }
        )
    return cells


def _measure_event_cell(connections, config, clock):
    """One C10k cell: a single event-loop worker at ``connections`` load.

    The workload churns 25% more connections than the in-flight cap, so
    the cell exercises accept bursts and connection teardown at pressure,
    not just a static connection set.
    """
    from repro.apps.nginx import NginxConfig
    from repro.apps.workloads import ConcurrentWrkWorkload
    from repro.bench.harness import run_app
    from repro.sched import DEFAULT_QUANTUM

    repeats = EVENT_REPEATS.get(connections, 1)
    best_wall = None
    result = workload = None
    for _ in range(repeats):
        workload = ConcurrentWrkWorkload(
            connections=connections + connections // 4,
            requests_per_connection=EVENT_REQUESTS,
            max_inflight=connections,
        )
        gc.collect()
        start = clock()
        result = run_app(
            TRAJECTORY_APP,
            config=config,
            app_config=NginxConfig(
                workers=1, master_serves=False, event_loop=True
            ),
            workload=workload,
            quantum=DEFAULT_QUANTUM,
        )
        elapsed = clock() - start
        if best_wall is None or elapsed < best_wall:
            best_wall = elapsed
    return result, workload, best_wall


def measure_event_cells(
    specs=EVENT_MATRIX,
    clock=DEFAULT_CLOCK,
    calibration=None,
):
    """Event-loop trajectory records: one dict per (connections, config).

    Same calibration discipline as :func:`measure_cells` (bracketed spin
    when no calibration is injected); cells carry ``mode: "event"`` plus
    the C10k-specific fields (latency tail, MB/s, peak in-flight).
    """
    fixed_calibration = calibration is not None
    if not fixed_calibration:
        calibration = calibrate(clock=clock)
    raw = []
    for connections, config in specs:
        result, workload, wall = _measure_event_cell(
            connections, config, clock
        )
        raw.append((connections, config, result, workload, wall))
    if not fixed_calibration:
        calibration = min(calibration, calibrate(clock=clock))
    cells = []
    for connections, config, result, workload, wall in raw:
        work = result.work_units
        latency = result.latency
        cells.append(
            {
                "config": config if isinstance(config, str) else config.name,
                "mode": "event",
                "workers": 1,
                "connections": connections,
                "status": result.status.kind,
                "work_units": work,
                "total_cycles": result.total_cycles,
                "steady_cycles": result.steady_cycles,
                "cycles_per_request": (
                    round(result.steady_cycles / work, 1) if work else 0.0
                ),
                "p50_latency_cycles": latency.get("p50", 0),
                "p95_latency_cycles": latency.get("p95", 0),
                "p99_latency_cycles": latency.get("p99", 0),
                "mbps": round(result.throughput_mbps(), 3),
                "peak_inflight": workload.peak_inflight,
                "syscalls": sum(result.syscall_counts.values()),
                "wall_index": _round_sig(wall / calibration),
            }
        )
    return cells


def measure_fuzz_cells(clock=DEFAULT_CLOCK, calibration=None, budget=FUZZ_BUDGET):
    """The fuzz-throughput cell: one pinned campaign, wall-timed.

    The campaign itself is fully deterministic (seed-pinned SplitMix64),
    so executed/kept/divergences/coverage are exact; only the wall-derived
    ``wall_index``/``genomes_per_sec`` fields are measurements.
    """
    from repro.fuzz.engine import DEFAULT_SEED, FuzzCampaign

    fixed_calibration = calibration is not None
    if not fixed_calibration:
        calibration = calibrate(clock=clock)
    gc.collect()
    start = clock()
    campaign = FuzzCampaign(seed=DEFAULT_SEED, budget=budget).run()
    wall = clock() - start
    if not fixed_calibration:
        calibration = min(calibration, calibrate(clock=clock))
    return [
        {
            "config": "fuzz",
            "mode": "fuzz",
            "workers": 0,
            "seed": campaign.seed,
            "budget": campaign.budget,
            "status": "done",
            "work_units": campaign.executed,
            "kept": len(campaign.kept),
            "divergences": len(campaign.divergences),
            "coverage_tokens": len(campaign.coverage),
            "total_cycles": 0,
            "steady_cycles": 0,
            "cycles_per_request": 0.0,
            "genomes_per_sec": _round_sig(campaign.executed / wall),
            "wall_index": _round_sig(wall / calibration),
        }
    ]


def trajectory_payload(
    scale=TRAJECTORY_SCALE,
    clock=DEFAULT_CLOCK,
    calibration=None,
    previous=None,
    sticky_pct=STICKY_PCT,
    event_specs=EVENT_MATRIX,
    include_fuzz=True,
):
    """The full snapshot payload, optionally sticky against ``previous``.

    ``event_specs`` selects the event-loop cells ((connections, config)
    pairs); the CI gate passes :data:`EVENT_SMOKE_MATRIX` to skip the
    expensive 1k/10k cells, ``()`` disables the event matrix entirely.
    ``include_fuzz=False`` likewise skips the fuzz-throughput cell.
    """
    cells = measure_cells(scale=scale, clock=clock, calibration=calibration)
    if event_specs:
        cells = cells + measure_event_cells(
            specs=event_specs, clock=clock, calibration=calibration
        )
    if include_fuzz:
        cells = cells + measure_fuzz_cells(clock=clock, calibration=calibration)
    if previous is not None:
        cells = _apply_sticky(cells, previous.get("cells", []), sticky_pct)
    return {
        "schema": SCHEMA,
        "pr": PR_NUMBER,
        "app": TRAJECTORY_APP,
        "workload": {
            "kind": "wrk_concurrent",
            "scale": scale,
            "connections": max(int(round(40 * scale)), 4),
        },
        "matrix": {
            "workers": list(MATRIX_WORKERS),
            "configs": list(MATRIX_CONFIGS),
            "event": [list(spec) for spec in event_specs],
            "fuzz_budget": FUZZ_BUDGET if include_fuzz else None,
        },
        "event_workload": {
            "kind": "wrk_concurrent_event",
            "requests_per_connection": EVENT_REQUESTS,
            "churn_pct": 25,
        },
        "calibration": {
            "spin_iterations": SPIN_ITERATIONS,
            "repeats": REPEATS,
        },
        "cells": cells,
    }


def _cell_key(cell):
    """Mode-aware identity: blocking cells by workers, event by load.

    Pre-PR-7 snapshots have no ``mode`` field; their cells fall into the
    ``blocking`` namespace, which is exactly where the (unchanged)
    blocking matrix still lives — shared cells keep diffing across PRs.
    """
    if cell.get("mode") == "event":
        return ("event", cell.get("connections", 0), cell["config"])
    if cell.get("mode") == "fuzz":
        return ("fuzz", cell.get("budget", 0), cell["config"])
    return ("blocking", cell.get("workers", 0), cell["config"])


def _normalize_key(key):
    """Accept legacy 2-tuple ``(workers, config)`` keys as blocking."""
    if len(key) == 2:
        return ("blocking",) + tuple(key)
    return tuple(key)


def _apply_sticky(cells, previous_cells, sticky_pct):
    """Keep the committed wall_index for unchanged, within-noise cells."""
    by_key = {_cell_key(cell): cell for cell in previous_cells}
    out = []
    for cell in cells:
        old = by_key.get(_cell_key(cell))
        if old is not None and _deterministic_match(cell, old):
            old_wall = old.get("wall_index", 0.0)
            new_wall = cell["wall_index"]
            if old_wall > 0 and _pct_change(old_wall, new_wall) <= sticky_pct:
                cell = dict(cell, wall_index=old_wall)
                if "genomes_per_sec" in old and "genomes_per_sec" in cell:
                    cell["genomes_per_sec"] = old["genomes_per_sec"]
        out.append(cell)
    return out


def _deterministic_match(cell, old):
    return all(cell.get(f) == old.get(f) for f in _DETERMINISTIC_FIELDS)


def _pct_change(old, new):
    return abs(new - old) / old * 100.0


def serialize(payload):
    """The canonical byte-stable encoding."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# committed snapshots
# ---------------------------------------------------------------------------


def repo_root():
    """The repository root (three levels above this file's package)."""
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )


def snapshot_path(pr=PR_NUMBER, root=None):
    return os.path.join(root or repo_root(), "BENCH_%d.json" % pr)


def find_snapshots(root=None):
    """``[(pr, path)]`` for every committed BENCH_*.json, oldest first."""
    root = root or repo_root()
    found = []
    try:
        names = os.listdir(root)
    except OSError:
        return []
    for name in names:
        if name.startswith("BENCH_") and name.endswith(".json"):
            middle = name[len("BENCH_") : -len(".json")]
            if middle.isdigit():
                found.append((int(middle), os.path.join(root, name)))
    return sorted(found)


def load_previous(root=None, before=None):
    """The newest committed snapshot (optionally with ``pr < before``)."""
    candidates = find_snapshots(root)
    if before is not None:
        candidates = [(pr, path) for pr, path in candidates if pr < before]
    if not candidates:
        return None
    _pr, path = candidates[-1]
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# diff / check
# ---------------------------------------------------------------------------


def diff_payloads(old, new):
    """Per-cell comparison rows between two snapshots.

    Each row: ``{workers, config, wall_old, wall_new, wall_pct,
    cycles_old, cycles_new, note}`` — ``wall_pct`` positive means the new
    snapshot is *slower*.  Cells present on only one side get a note.
    """
    old_by_key = {_cell_key(c): c for c in old.get("cells", [])}
    rows = []
    for cell in new.get("cells", []):
        key = _cell_key(cell)
        prior = old_by_key.pop(key, None)
        row = {
            "key": key,
            "mode": cell.get("mode", "blocking"),
            "workers": cell.get("workers", 0),
            "connections": cell.get("connections"),
            "config": cell["config"],
            "wall_new": cell.get("wall_index", 0.0),
            "cycles_new": cell.get("cycles_per_request", 0.0),
            "wall_old": None,
            "cycles_old": None,
            "wall_pct": None,
            "note": "",
        }
        if prior is None:
            row["note"] = "new cell"
        else:
            row["wall_old"] = prior.get("wall_index", 0.0)
            row["cycles_old"] = prior.get("cycles_per_request", 0.0)
            if row["wall_old"]:
                row["wall_pct"] = (
                    (row["wall_new"] - row["wall_old"]) / row["wall_old"] * 100.0
                )
        rows.append(row)
    for key, prior in sorted(old_by_key.items()):
        rows.append(
            {
                "key": key,
                "mode": prior.get("mode", "blocking"),
                "workers": prior.get("workers", 0),
                "connections": prior.get("connections"),
                "config": prior["config"],
                "wall_new": None,
                "cycles_new": None,
                "wall_old": prior.get("wall_index", 0.0),
                "cycles_old": prior.get("cycles_per_request", 0.0),
                "wall_pct": None,
                "note": "cell removed",
            }
        )
    return rows


def _wall_ulp(value, digits=2):
    """One unit in the last place of the ``digits``-sig-digit rounding.

    ``wall_index`` is stored at two significant digits, so committed
    values near a rounding boundary (14 vs 15) differ by ~7% on pure
    quantization.  The gate must never fail on a step the stored
    precision cannot resolve.
    """
    if value <= 0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(value)) - (digits - 1))


def check_rows(rows, tolerance=DEFAULT_TOLERANCE):
    """The rows failing the regression gate.

    A cell fails when it is more than ``tolerance`` percent slower AND
    the slowdown exceeds one ulp of the committed value's two-sig-digit
    precision — for small indices (one ulp ≈ 7–10%) quantization sets
    the floor, for large ones the percentage does.
    """
    return [
        row
        for row in rows
        if row["wall_pct"] is not None
        and row["wall_pct"] > tolerance
        and row["wall_new"] > row["wall_old"] + _wall_ulp(row["wall_old"])
    ]


def remeasure_cells(cells, keys, scale=TRAJECTORY_SCALE, clock=DEFAULT_CLOCK):
    """Fresh measurement for the cells in ``keys``, keeping the minimum.

    The wall estimator is a *minimum* over repeats, so extra samples can
    only move it down, toward the true cost — a genuine regression
    survives any number of retries, while a one-off scheduler/noise
    spike does not.  Cells whose deterministic fields changed between
    runs are replaced outright (something real moved; the old wall is
    not comparable).
    """
    by_key = {_cell_key(cell): cell for cell in cells}
    for key in sorted(_normalize_key(key) for key in keys):
        cell = by_key.get(key)
        if cell is None:
            continue
        mode, count, config = key
        if mode == "fuzz":
            fresh = measure_fuzz_cells(clock=clock, budget=count)[0]
        elif mode == "event":
            fresh = measure_event_cells(
                specs=((count, config),), clock=clock
            )[0]
        else:
            fresh = measure_cells(
                workers=(count,), configs=(config,), scale=scale, clock=clock
            )[0]
        if _deterministic_match(fresh, cell):
            cell["wall_index"] = min(cell["wall_index"], fresh["wall_index"])
        else:
            cell.clear()
            cell.update(fresh)
    return cells


def _fmt(value, spec="%s"):
    return "-" if value is None else spec % value


def _cell_label(mode, workers, connections):
    """The 'load' column: worker count (blocking) or connections (event)."""
    if mode == "event":
        return "%dc" % (connections or 0)
    if mode == "fuzz":
        return "fz"
    return "w%d" % workers


def render_diff(rows, old_pr=None, new_pr=PR_NUMBER):
    """A per-cell text table of the trajectory diff."""
    lines = []
    title = "trajectory diff"
    if old_pr is not None:
        title += ": BENCH_%s.json -> BENCH_%s.json" % (old_pr, new_pr)
    lines.append(title)
    lines.append(
        "%-18s %6s  %10s %10s %8s  %12s %12s  %s"
        % (
            "config",
            "load",
            "wall(old)",
            "wall(new)",
            "wall%",
            "cyc/req(old)",
            "cyc/req(new)",
            "note",
        )
    )
    lines.append("-" * 95)
    for row in rows:
        lines.append(
            "%-18s %6s  %10s %10s %8s  %12s %12s  %s"
            % (
                row["config"],
                _cell_label(
                    row.get("mode", "blocking"),
                    row.get("workers", 0),
                    row.get("connections"),
                ),
                _fmt(row["wall_old"], "%.4g"),
                _fmt(row["wall_new"], "%.4g"),
                _fmt(row["wall_pct"], "%+.1f"),
                _fmt(row["cycles_old"], "%.1f"),
                _fmt(row["cycles_new"], "%.1f"),
                row["note"],
            )
        )
    return "\n".join(lines)


def render_payload(payload):
    """A human-readable snapshot table (the no-flag CLI output)."""
    lines = [
        "trajectory snapshot (PR %d): %s, scale %s, workers %s"
        % (
            payload["pr"],
            payload["app"],
            payload["workload"]["scale"],
            "/".join(str(w) for w in payload["matrix"]["workers"]),
        ),
        "%-18s %6s  %10s  %12s  %10s  %8s"
        % ("config", "load", "wall_index", "cyc/req", "cycles(M)", "requests"),
        "-" * 75,
    ]
    for cell in payload["cells"]:
        lines.append(
            "%-18s %6s  %10.4g  %12.1f  %10.2f  %8d"
            % (
                cell["config"],
                _cell_label(
                    cell.get("mode", "blocking"),
                    cell.get("workers", 0),
                    cell.get("connections"),
                ),
                cell["wall_index"],
                cell["cycles_per_request"],
                cell["steady_cycles"] / 1e6,
                cell["work_units"],
            )
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI driver (``python -m repro.bench trajectory``)
# ---------------------------------------------------------------------------


def run_cli(args):
    """Drive the trajectory subcommand; returns the process exit code."""
    scale = args.scale if args.scale is not None else TRAJECTORY_SCALE

    if args.check:
        previous = load_previous()
        if previous is None:
            print(
                "trajectory check: no committed BENCH_*.json yet; "
                "nothing to gate against."
            )
            return 0
        # the gate measures the full blocking matrix but only the cheap
        # 100-connection event cells; missing 1k/10k/fuzz cells diff as
        # "cell removed" notes, which never fail the check
        payload = trajectory_payload(
            scale=scale, event_specs=EVENT_SMOKE_MATRIX, include_fuzz=False
        )
        rows = diff_payloads(previous, payload)
        failures = check_rows(rows, tolerance=args.tolerance)
        for retry in range(CHECK_RETRIES):
            if not failures:
                break
            keys = {row["key"] for row in failures}
            print(
                "re-measuring %d regressed cell(s) (retry %d/%d) -- the "
                "wall estimator is a min, so a real regression survives"
                % (len(keys), retry + 1, CHECK_RETRIES)
            )
            payload["cells"] = remeasure_cells(
                payload["cells"], keys, scale=scale
            )
            rows = diff_payloads(previous, payload)
            failures = check_rows(rows, tolerance=args.tolerance)
        print(render_diff(rows, old_pr=previous.get("pr"), new_pr=PR_NUMBER))
        if failures:
            print(
                "\ntrajectory check FAILED: %d cell(s) regressed more than "
                "%.1f%% wall-clock." % (len(failures), args.tolerance)
            )
            return 1
        print(
            "\ntrajectory check OK: no cell regressed more than %.1f%% "
            "wall-clock." % args.tolerance
        )
        return 0

    previous = None
    path = snapshot_path()
    if args.write and os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
    payload = trajectory_payload(scale=scale, previous=previous)

    if args.write:
        with open(path, "w") as fh:
            fh.write(serialize(payload))
        print("wrote %s" % path)
        baseline = load_previous(before=PR_NUMBER)
        if baseline is not None:
            rows = diff_payloads(baseline, payload)
            print(render_diff(rows, old_pr=baseline.get("pr")))
        return 0

    if args.json:
        print(serialize(payload), end="")
        return 0

    print(render_payload(payload))
    return 0
