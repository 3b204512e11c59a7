import copy
import json
import os
import subprocess
import sys

import pytest

import run
import scenarios
import tracing
from conftest import BENCH, SRC

ROOT = os.path.dirname(BENCH)


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert scenarios.nginx_inputs(7) == scenarios.nginx_inputs(7)
    assert scenarios.nginx_inputs(7) != scenarios.nginx_inputs(8)
    assert scenarios.dbt2_inputs(7) == scenarios.dbt2_inputs(7)
    assert scenarios.dbt2_inputs(7) != scenarios.dbt2_inputs(8)
    mechs = scenarios.mechanisms()
    pairs = scenarios.attack_inputs(7, 36, mechs)
    assert pairs == scenarios.attack_inputs(7, 36, mechs)
    assert pairs != scenarios.attack_inputs(8, 36, mechs)
    assert sorted(pairs) == sorted((i, m) for i in range(36) for m in mechs)


def test_inputs_do_not_depend_on_the_interpreter_hash_seed():
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import scenarios; "
        "print(scenarios.nginx_inputs(3), scenarios.dbt2_inputs(3), "
        "scenarios.attack_inputs(3, 36, scenarios.mechanisms()))" % (SRC, BENCH)
    )
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_input_sizes_match_the_workload_definitions():
    counts = scenarios.nginx_inputs(1)
    assert len(counts) == scenarios.NGINX_CONNECTIONS > scenarios.NGINX_INFLIGHT
    assert set(counts) <= set(range(1, 5))
    assert len(scenarios.dbt2_inputs(1)) == scenarios.DBT2_TERMINALS


@pytest.fixture(scope="module")
def corpus_entries():
    from repro.fuzz.engine import load_corpus

    return load_corpus()["divergences"]


def _spec_keys(entries):
    from repro.fuzz.genome import genome_from_dict, spec_for_genome

    return [spec_for_genome(genome_from_dict(e["genome"])) for e in entries]


def test_warm_up_is_disjoint_from_timed_inputs_and_covers_their_targets(corpus_entries):
    warm = scenarios.warm_up_specs()
    timed = _spec_keys(corpus_entries)
    assert not {s.name for s in warm} & {s.name for s in timed}
    assert not {s.stage for s in warm} & {s.stage for s in timed}
    warm_keys = {(s.target, s.needs_fs_extension) for s in warm}
    assert {(s.target, s.needs_fs_extension) for s in timed} <= warm_keys


def _pairs_for_first_entry():
    return [(0, m) for m in scenarios.mechanisms()]


def test_pinned_entry_replays_without_failure(corpus_entries):
    result = scenarios.replay(corpus_entries[:1], _pairs_for_first_entry())
    assert result["attempted"] == len(scenarios.mechanisms())
    assert result["failed"] == 0, result["errors"]


def test_doctored_entry_counts_exactly_one_failed_op(corpus_entries):
    doctored = copy.deepcopy(corpus_entries[0])
    mechanism = "bastion"
    flipped = {"killed": "allowed", "allowed": "killed"}
    doctored["pattern"][mechanism] = flipped[doctored["pattern"][mechanism]]
    result = scenarios.replay([doctored], _pairs_for_first_entry())
    assert result["failed"] == 1
    assert result["ops"] == result["attempted"] - 1
    assert len(result["errors"]) == 1 and mechanism in result["errors"][0]


def test_sim_disagreement_between_samples_is_an_error():
    sample = {"errors": [], "sim": {"sim_cycles_per_op": 1.0}}
    other = {"errors": [], "sim": {"sim_cycles_per_op": 2.0}}
    assert run.check([sample, dict(sample)]) == []
    assert len(run.check([sample, other])) == 1


def test_benchmark_json_names_what_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(scenarios.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
