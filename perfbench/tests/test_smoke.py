"""``run.py --quick``: every name ``BENCHMARK.json`` declares is emitted,
with its unit, by the real workloads at smoke-test size (48x64 clips, one
set-up, half a second of measurement)."""

import json
import re
import subprocess
import sys

import pytest

from perfbench import harness

SPEC = harness.BenchSpec()
RUN = [sys.executable, str(harness.ROOT / "perfbench" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "quick.json"
    done = subprocess.run(
        RUN + ["--quick", "--runs", "1", "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def test_schema_names_are_well_formed():
    names = (list(SPEC.workloads) + list(SPEC.end_to_end)
             + list(SPEC.per_layer))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    units = [m.unit for m in SPEC.end_to_end.values()] \
        + [m.unit for m in SPEC.per_layer.values()]
    assert all(UNIT.fullmatch(u) for u in units)
    assert "setup_s" in SPEC.end_to_end


def test_every_declared_metric_is_emitted_with_its_unit(suite):
    result, stdout = suite
    assert set(result["workloads"]) == set(SPEC.workloads)
    for name, entry in result["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, entry["problems"]
        assert set(entry["end_to_end"]) == set(SPEC.end_to_end)
        for metric, got in entry["end_to_end"].items():
            assert got["unit"] == SPEC.end_to_end[metric].unit
            assert len(got["values"]) == 1 and got["values"][0] > 0, \
                (name, metric, got)
        assert set(entry["per_layer"]) == set(SPEC.per_layer)
        for metric, got in entry["per_layer"].items():
            assert got["unit"] == SPEC.per_layer[metric].unit
        assert entry["spans"]["children"], name
    for metric in list(SPEC.end_to_end) + list(SPEC.per_layer):
        assert metric in stdout


def test_each_layer_row_is_measured_by_some_workload(suite):
    result, _ = suite
    for metric in SPEC.per_layer:
        # Counters that are legitimately zero in every session today.
        if metric in ("sr.tiles_reused", "net.non200", "play.stall_ratio",
                      "sr.tiles_skipped"):
            continue
        assert any(entry["per_layer"][metric]["value"] != 0
                   for entry in result["workloads"].values()), metric


def test_provenance_block(suite):
    result, _ = suite
    provenance = result["provenance"]
    for key in ("git_sha", "git_dirty", "nproc", "python", "numpy", "scipy",
                "blas", "blas_threads", "seed", "transport"):
        assert key in provenance
    assert provenance["seed"] == 7 and "loopback" in provenance["transport"]
    for entry in result["workloads"].values():
        assert entry["samples"]["untraced"] and entry["samples"]["traced"]


def test_contract_result_line():
    done = subprocess.run(
        RUN + ["--workload", "fleet_sparse", "--seed", "3", "--seconds",
               "0.3", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True and record["failed"] == 0
    assert isinstance(record["attempted"], int) and record["attempted"] >= 1
    assert set(record["metrics"]) == set(SPEC.end_to_end)
    assert all(set(v) == {"value", "unit"}
               for v in record["metrics"].values())


def test_unknown_workload_prints_no_result():
    done = subprocess.run(
        RUN + ["--workload", "nope", "--seed", "3", "--seconds", "1",
               "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
