"""Tests of the benchmark itself: its correctness gate, the tracer's
determinism and accounting, and its agreement with BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from tracer import LAYER_SELF, summarize

SMALL_TODA = ["verify", "toda", "--dmax", "3", "--bmax", "3"]
# counts later changes may cite as evidence; each must repeat exactly
COUNTS = ("series.mul.pairs", "series.shift_p.terms_out", "hurwitz.tau_terms",
          "hurwitz.build_tau.calls", "characters.misses", "oracle.tuples")


def deadline():
    return run.Deadline(120)


def cli_digest(argv):
    proc = run.spawn(["-m", "hurwitz_toda.cli", *argv], deadline())
    assert proc.code == 0
    return run.sha256(proc.out)


def traced_cli(argv, tmp_path, name):
    path = tmp_path / f"{name}.json"
    outcome = run.run_cli(argv, cli_digest(argv), deadline(), trace=path)
    assert outcome.failed == 0
    trace = json.loads(path.read_text())
    return summarize(trace, outcome.wall_s, trace["counters"]["operations"])


def small_session(seed=3):
    queries = run.make_queries(seed, calls=200, d_max=5, b_max=5)
    return queries, run.expected_answers(queries, run.load_reference())


# -- the correctness gate ------------------------------------------------------

def test_gate_passes_pinned_setup_output():
    assert run.run_cli(run.SETUP_ARGV, run.SETUP_DIGEST, deadline()).failed == 0


def test_gate_counts_failing_exit_as_failure():
    digest = cli_digest(SMALL_TODA)
    corrupt = run.run_cli(SMALL_TODA + ["--corrupt-test"], digest, deadline())
    assert corrupt.failed == 1


def test_gate_counts_wrong_digest_as_failure():
    assert run.run_cli(SMALL_TODA, "0" * 64, deadline()).failed == 1


def test_session_gate_checks_every_answer():
    queries, expected = small_session()
    assert run.run_session(queries, expected, deadline()).failed == 0
    wrong = list(expected)
    wrong[7] = wrong[7] + "1"
    outcome = run.run_session(queries, wrong, deadline())
    assert (outcome.attempted, outcome.failed) == (200, 1)


def test_session_gate_counts_crashed_session_as_failed(tmp_path):
    queries, expected = small_session()
    # the trace cannot be written, so the child exits with an error
    outcome = run.run_session(queries, expected, deadline(),
                              trace=tmp_path / "missing" / "trace.json")
    assert outcome.failed == outcome.attempted == len(queries)


def test_session_reports_call_exceptions_as_failures():
    queries, expected = small_session()
    queries = queries + [["double", 3, 1, [2], [3]]]  # |mu| != d raises
    outcome = run.run_session(queries, expected + ["0"], deadline())
    assert outcome.failed == 1


# -- query generation -----------------------------------------------------------

def test_queries_follow_the_seed():
    assert run.make_queries(11) == run.make_queries(11)
    assert run.make_queries(11) != run.make_queries(12)


def test_query_mix_covers_every_pair():
    queries = run.make_queries(4)
    pairs = {(q[1], q[2]) for q in queries if q[0] == "double"}
    assert len(pairs) == run.QUERY_D_MAX * (run.QUERY_B_MAX + 1)
    share = sum(q[0] == "simple" for q in queries) / len(queries)
    assert abs(share - run.SIMPLE_SHARE) < 0.03
    assert len(run.expected_answers(queries, run.load_reference())) == len(queries)


def test_partitions_counts():
    assert [len(run.partitions(d)) for d in range(1, 10)] == [1, 2, 3, 5, 7, 11, 15, 22, 30]


# -- the tracer -------------------------------------------------------------------

def test_traced_counts_repeat_exactly(tmp_path):
    runs = []
    for i in range(2):
        metrics = {}
        for argv in (["verify", "toda", "--dmax", "5", "--bmax", "5"],
                     ["verify", "hirota", "-m", "0", "--sn", "1", "--dmax", "4", "--bmax", "4"],
                     ["compare", "--dmax", "3", "--bmax", "2", "--jobs", "1"]):
            for k, v in traced_cli(argv, tmp_path, f"{argv[0]}{i}").items():
                metrics[k] = metrics.get(k, 0) + v
        runs.append({k: metrics[k] for k in COUNTS})
    assert runs[0] == runs[1]
    assert all(runs[0][k] > 0 for k in COUNTS)


def test_traced_session_counts_repeat_exactly(tmp_path):
    queries, expected = small_session()
    counts = []
    for i in range(2):
        path = tmp_path / f"session{i}.json"
        outcome = run.run_session(queries, expected, deadline(), trace=path)
        assert outcome.failed == 0
        trace = json.loads(path.read_text())
        metrics = summarize(trace, outcome.wall_s, len(queries))
        counts.append({k: metrics[k] for k in ("hurwitz.build_tau.calls",
                                                "hurwitz.tau_terms",
                                                "series.log.terms_out",
                                                "characters.misses")})
    assert counts[0] == counts[1]
    assert all(counts[0].values())


def test_self_times_account_for_traced_wall(tmp_path):
    metrics = traced_cli(["verify", "toda", "--dmax", "5", "--bmax", "5"], tmp_path, "acc")
    covered = sum(metrics[k] for k in LAYER_SELF)
    assert covered > 0
    assert covered + metrics["trace.uncovered_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.uncovered_s"] > 0
    products = sum(metrics[f"series.mul.{p}_s"] for p in ("scaled", "tau_mixed", "d1_d1p"))
    assert 0 < products <= metrics["series.mul.busy_s"]
    assert metrics["verify.residual_terms"] == 0


def test_every_binding_is_wrapped():
    code = """
import hurwitz_toda as ht, hurwitz_toda.cli
from tracer import Tracer
original = ht.hurwitz.build_tau
t = Tracer(); t.install(ht)
w = ht.hurwitz.build_tau
assert w is not original and w.__wrapped__ is original
assert ht.build_tau is w and ht.verify.build_tau is w and ht.oracle.build_tau is w
S = ht.series.TruncatedSeries
assert S.__rmul__ is S.__mul__ and S.__radd__ is S.__add__
assert ht.cli.compare_all is ht.oracle.compare_all is ht.compare_all
assert hasattr(ht.cli.verify_toda, "__wrapped__")
assert t.missing == [], t.missing
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT,
                          env={**run.child_env(),
                               "PYTHONPATH": f"{run.SRC}:{run.HERE}"},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# -- the benchmark's contract -------------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toda",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
