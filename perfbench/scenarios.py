"""The benchmark's workloads: seeded inputs, one sample's run, its checks.

Each workload turns ``--seed`` into inputs (per-connection request
counts, per-terminal transaction counts, the order of the attack runs)
and drives the program only through its public entry points:
``repro.api.run(..., workload=..., scheduled=True)`` for serving and
``repro.attacks.runner.run_attack`` for the attack replay.  A sample
returns plain numbers; the driver (``run.py``) takes medians across
samples.  Why each workload exists is written down in ``NOTES.md``.
"""

import dataclasses
import random
import time
import traceback

from repro.apps.nginx import PAGE_BYTES, NginxConfig
from repro.apps.workloads import (
    ConcurrentWrkWorkload,
    Dbt2Workload,
    LatencyStats,
)
from repro.kernel.net import BACKLOG_WAIT

from summary import distribution
from tracing import STAGE

WORKLOADS = ("nginx_c1k", "sqlite_dbt2_fs", "attack_replay")

#: nginx_c1k: ~1000 keep-alive connections in flight, 25% more churn through
NGINX_CONNECTIONS = 1250
NGINX_INFLIGHT = 1000
NGINX_REQUESTS = (1, 4)  # per connection, inclusive

#: sqlite_dbt2_fs: DBT2 terminals, each a run of NEWORDER transactions
DBT2_TERMINALS = 8
DBT2_TRANSACTIONS = (25, 45)  # per terminal, inclusive


def rng_for(workload, seed):
    """The one source of input randomness (string seeding is stable
    across interpreters, unlike ``hash``)."""
    return random.Random("%s:%d" % (workload, seed))


def nginx_inputs(seed):
    """Requests per connection, in accept order."""
    rng = rng_for("nginx_c1k", seed)
    return [rng.randint(*NGINX_REQUESTS) for _ in range(NGINX_CONNECTIONS)]


def dbt2_inputs(seed):
    """NEWORDER transactions per terminal, in connect order."""
    rng = rng_for("sqlite_dbt2_fs", seed)
    return [rng.randint(*DBT2_TRANSACTIONS) for _ in range(DBT2_TERMINALS)]


def attack_inputs(seed, entry_count, mechanisms):
    """Every (corpus entry index, mechanism) pair once, in seeded order."""
    pairs = [(i, m) for i in range(entry_count) for m in mechanisms]
    rng_for("attack_replay", seed).shuffle(pairs)
    return pairs


# ---------------------------------------------------------------------------
# serving: load generators that take their sizes from the seeded inputs
# ---------------------------------------------------------------------------


class SeededWrk(ConcurrentWrkWorkload):
    """Closed-loop keep-alive wrk with per-connection request counts.

    Besides the modelled latency the base class samples, it records the
    host CPU time from each request's delivery to its response body, and
    the host CPU time of the first accept (the end of set-up).
    """

    def __init__(self, counts, max_inflight):
        super().__init__(
            connections=len(counts),
            requests_per_connection=max(counts),
            max_inflight=max_inflight,
        )
        self.counts = counts
        self.first_op_cpu = None
        self.host_ms = []
        self._host_sent = {}

    def next_connection(self, sock):
        if self.first_op_cpu is None:
            self.first_op_cpu = time.process_time()
        conn = super().next_connection(sock)
        if conn is not None and conn is not BACKLOG_WAIT:
            self._pending[conn.serial] = self.counts[self.stats.connections - 1] - 1
        return conn

    def _send(self, conn):
        self._host_sent[conn.serial] = time.process_time()
        super()._send(conn)

    def _on_write(self, conn, data_len, prefix):
        if data_len >= PAGE_BYTES // 2:
            sent = self._host_sent.pop(conn.serial, None)
            if sent is not None:
                self.host_ms.append((time.process_time() - sent) * 1e3)
        super()._on_write(conn, data_len, prefix)

    def planned(self):
        return sum(self.counts)

    def answered(self):
        return self.stats.responses

    def sent_ok(self):
        return (
            self.stats.requests_sent == self.planned()
            and self.stats.connections == len(self.counts)
        )


class SeededDbt2(Dbt2Workload):
    """DBT2 terminals with per-terminal transaction counts.

    Samples each transaction's modelled latency on the scheduler clock
    (``Workload.now()``, delivery to result write) and its host CPU time.
    """

    def __init__(self, counts):
        super().__init__(
            terminals=len(counts), transactions_per_terminal=max(counts)
        )
        self.counts = counts
        self.latency = LatencyStats(source="transaction")
        self.first_op_cpu = None
        self.host_ms = []
        self._sent_at = {}
        self._host_sent = {}

    def next_connection(self, sock):
        if self.first_op_cpu is None:
            self.first_op_cpu = time.process_time()
        conn = super().next_connection(sock)
        if conn is not None:
            self._pending[conn.serial] = self.counts[self.stats.terminals - 1] - 1
            self._mark(conn)
        return conn

    def _mark(self, conn):
        self._sent_at[conn.serial] = self.now()
        self._host_sent[conn.serial] = time.process_time()

    def _on_write(self, conn, data_len, prefix):
        sent = self._sent_at.pop(conn.serial, None)
        if sent is not None:
            self.latency.record(max(self.now() - sent, 0))
            host = time.process_time() - self._host_sent.pop(conn.serial)
            self.host_ms.append(host * 1e3)
        super()._on_write(conn, data_len, prefix)
        if not conn.closed:
            self._mark(conn)

    def planned(self):
        return sum(self.counts)

    def answered(self):
        return self.stats.transactions

    def sent_ok(self):
        return self.stats.terminals == len(self.counts)


@dataclasses.dataclass(frozen=True)
class Serving:
    app: str
    config: str
    inputs: object  # seed -> counts
    workload: object  # counts -> Workload
    app_config: object = None


SERVING = {
    # event-loop nginx under full BASTION with the verdict cache on
    "nginx_c1k": Serving(
        app="nginx",
        config="cache_on",
        inputs=nginx_inputs,
        workload=lambda counts: SeededWrk(counts, NGINX_INFLIGHT),
        app_config=NginxConfig(event_loop=True, workers=1, master_serves=False),
    ),
    # SQLite under Table 7's filesystem extension, verdict cache off
    "sqlite_dbt2_fs": Serving(
        app="sqlite",
        config="fs_full",
        inputs=dbt2_inputs,
        workload=SeededDbt2,
    ),
}


def run_serving(name, seed, tracer=None):
    """One serving sample: every request answered, no violation, all
    tasks ``returned`` — anything else is an error."""
    from repro import api

    spec = SERVING[name]
    wl = spec.workload(spec.inputs(seed))
    op = tracer.begin_op() if tracer is not None else None
    try:
        result = api.run(
            spec.app,
            spec.config,
            workload=wl,
            app_config=spec.app_config,
            scheduled=True,
        )
    finally:
        if tracer is not None:
            tracer.end(op)
    end = time.process_time()
    if tracer is not None:
        tracer.harvest_kernels()

    errors = []
    bad = {pid: kind for pid, kind in result.bench.statuses.items() if kind != "returned"}
    if bad:
        errors.append("tasks did not return: %r" % bad)
    if result.violations:
        errors.append("%d violations in a benign run" % len(result.violations))
    if not wl.sent_ok():
        errors.append("load generator did not send its planned inputs")
    planned, answered = wl.planned(), wl.answered()
    if answered != planned:
        errors.append("%d of %d ops answered" % (answered, planned))
    return _sample(
        planned, max(planned - answered, 0), errors, answered,
        wl.first_op_cpu, end - wl.first_op_cpu, wl.host_ms,
        result.steady_cycles / answered, wl.latency.samples,
    )


def _sample(attempted, failed, errors, ops, first_op_cpu, timed_cpu_s,
            host_ms, sim_cycles_per_op, sim_latencies):
    """The sample record ``run.py`` aggregates.

    ``setup_s`` is the process CPU time at the first timed op, so it
    counts interpreter start-up and every import too.
    """
    lat = distribution(sim_latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "ops": ops,
        "setup_s": first_op_cpu,
        "timed_cpu_s": timed_cpu_s,
        "ops_per_cpu_s": ops / timed_cpu_s,
        "op_ms": distribution(host_ms),
        "sim": {
            "sim_cycles_per_op": sim_cycles_per_op,
            "sim_lat_p50_cycles": lat["p50"],
            "sim_lat_tail_cycles": lat["tail"],
            "sim_lat_tail_pct": lat["tail_pct"],
            "sim_lat_count": lat["count"],
        },
    }


# ---------------------------------------------------------------------------
# attack replay: the pinned fuzz divergences under every mechanism
# ---------------------------------------------------------------------------


def mechanisms():
    """``undefended`` (the exploit must work) plus every registered one."""
    from repro.fuzz.oracle import MATRIX

    return ("undefended",) + tuple(MATRIX)


def launch_attack(spec, mechanism):
    """Run ``spec`` under ``mechanism`` exactly as the fuzz oracle does."""
    from repro.attacks.runner import run_attack
    from repro.bench.harness import CONFIGS
    from repro.monitor.policy import ContextPolicy

    if mechanism == "undefended":
        return run_attack(spec, None, "undefended")
    if mechanism == "bastion":
        return run_attack(spec, ContextPolicy.full(), "bastion")
    return run_attack(spec, None, mechanism, defense=CONFIGS[mechanism])


def expected(entry, mechanism):
    """The pinned (verdict, blocked_by) of one corpus entry's run."""
    if mechanism == "undefended":
        return "allowed", None
    return entry["pattern"][mechanism], entry["blocked_by"].get(mechanism)


def warm_up_specs():
    """The untimed warm-up inputs: one Table 6 catalog spec per
    (target, filesystem extension) pair.  The program's caches are keyed
    by target (modules, compiled artifacts, recovered policies), so these
    fill every cache a corpus run reads, while no catalog spec is a
    corpus input."""
    from repro.attacks.catalog import CATALOG

    chosen = {}
    for spec in CATALOG:
        chosen.setdefault((spec.target, spec.needs_fs_extension), spec)
    return list(chosen.values())


def warm_up(mechs):
    """Fill the program's per-target caches without touching timed inputs.

    Some catalog exploits cannot be staged under a mechanism that removes
    the code they aim at (debloat); those raise ``AttackError`` and are
    skipped — the warm-up result is never checked.
    """
    from repro.errors import AttackError

    for spec in warm_up_specs():
        for mechanism in mechs:
            try:
                launch_attack(spec, mechanism)
            except AttackError:
                pass


def replay(entries, pairs, tracer=None):
    """Run each (entry index, mechanism) pair once; compare with the pin.

    An op fails when its verdict or ``blocked_by`` differs from the
    pinned entry, or when it raises.  Returns the counts plus the raw
    per-run host times and modelled cycles of the runs that completed.
    """
    from repro.fuzz.genome import genome_from_dict, spec_for_genome
    from repro.fuzz.oracle import verdict_of

    clock = time.process_time
    first = clock()
    host_ms, cycles, errors = [], [], []
    failed = 0
    for index, mechanism in pairs:
        entry = entries[index]
        start = clock()
        try:
            spec = spec_for_genome(genome_from_dict(entry["genome"]))
            outcome, run_cycles = _run_one(spec, mechanism, tracer)
        except Exception:  # the replay must go on and count the failure
            failed += 1
            errors.append(
                "%s under %s raised:\n%s"
                % (entry["name"], mechanism, traceback.format_exc(limit=3))
            )
            continue
        host_ms.append((clock() - start) * 1e3)
        cycles.append(run_cycles)
        got = (verdict_of(outcome), _blocked_by(outcome))
        if got != expected(entry, mechanism):
            failed += 1
            errors.append(
                "%s under %s: got %r, pinned %r"
                % (entry["name"], mechanism, got, expected(entry, mechanism))
            )
    return {
        "attempted": len(pairs),
        "failed": failed,
        "errors": errors,
        "ops": len(pairs) - failed,
        "first_op_cpu": first,
        "timed_cpu_s": clock() - first,
        "host_ms": host_ms,
        "cycles": cycles,
    }


def _blocked_by(outcome):
    return None if outcome.blocked_by is None else str(outcome.blocked_by)


def _run_one(spec, mechanism, tracer):
    """One attack run as an op; returns (outcome, modelled cycles).

    The spec's ``stage`` callable is wrapped to keep the run's
    ``AttackEnv``: its kernel holds every process the run created, whose
    ledgers sum to the run's modelled cycles.
    """
    seen = {}
    original = spec.stage

    def stage(env):
        seen["env"] = env
        if tracer is None:
            return original(env)
        index = tracer.begin(STAGE)
        try:
            return original(env)
        finally:
            tracer.end(index)

    spec = dataclasses.replace(spec, stage=stage)
    op = tracer.begin_op() if tracer is not None else None
    try:
        outcome = launch_attack(spec, mechanism)
    finally:
        if tracer is not None:
            tracer.end(op)
    kernel = seen["env"].kernel
    run_cycles = sum(p.ledger.cycles for p in kernel.processes.values())
    if tracer is not None:
        tracer.harvest_kernels()
    return outcome, run_cycles


def run_attack_replay(seed, tracer=None):
    """One attack_replay sample: untimed warm-up, then all 360 runs."""
    from repro.fuzz.engine import load_corpus

    entries = load_corpus()["divergences"]
    mechs = mechanisms()
    warm_up(mechs)
    if tracer is not None:
        tracer.reset()
    done = replay(entries, attack_inputs(seed, len(entries), mechs), tracer)
    cycles = done["cycles"]
    return _sample(
        done["attempted"], done["failed"], done["errors"], done["ops"],
        done["first_op_cpu"], done["timed_cpu_s"], done["host_ms"],
        sum(cycles) / len(cycles), cycles,
    )


def run(name, seed, tracer=None):
    if name == "attack_replay":
        return run_attack_replay(seed, tracer)
    return run_serving(name, seed, tracer)
