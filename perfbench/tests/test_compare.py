"""``compare.py`` on synthetic result files: the verdict rules and the exit
code, without running any workload."""

import json

import pytest

from perfbench import compare, harness

SPEC = harness.BenchSpec()
BASE = {"throughput_per_s": 100.0, "latency_ms_p50": 10.0,
        "peak_rss_mb": 200.0, "setup_s": 8.0}
WOBBLE = (0.99, 1.0, 1.01)


def result_file(scale=None, wobble=WOBBLE, failed=0, correct=True):
    """A suite result whose every workload reads ``BASE`` (times ``scale``
    per metric), three runs each, spread by ``wobble``."""
    scale = scale or {}
    workloads = {}
    for name in SPEC.workloads:
        workloads[name] = {
            "correct": correct, "attempted": 1000, "failed": failed,
            "problems": [] if correct else ["synthetic failure"],
            "end_to_end": {
                m.name: {"unit": m.unit,
                         "values": [BASE[m.name] * scale.get(m.name, 1.0) * w
                                    for w in wobble]}
                for m in SPEC.end_to_end.values()},
        }
    return {"schema": "perfbench/1", "workloads": workloads}


def verdicts(a, b):
    rows, problems = compare.compare(a, b, SPEC)
    return {(r.workload, r.metric): r.verdict for r in rows}, problems


def test_identical_files_are_all_ok():
    got, problems = verdicts(result_file(), result_file())
    assert set(got.values()) == {"ok"} and not problems
    assert len(got) == len(SPEC.workloads) * len(SPEC.end_to_end)


def test_direction_follows_the_metric():
    bound = SPEC.end_to_end["throughput_per_s"].bound
    slower = result_file({"throughput_per_s": 1.0 - 2 * bound})
    faster = result_file({"throughput_per_s": 1.0 + 2 * bound})
    got, _ = verdicts(result_file(), slower)
    assert got[("play_static", "throughput_per_s")] == "regression"
    assert got[("play_static", "latency_ms_p50")] == "ok"
    got, _ = verdicts(result_file(), faster)
    assert set(got.values()) == {"ok"}

    bound = SPEC.end_to_end["latency_ms_p50"].bound
    got, _ = verdicts(result_file(),
                      result_file({"latency_ms_p50": 1.0 + 2 * bound}))
    assert got[("origin_loopback", "latency_ms_p50")] == "regression"


def test_worse_within_the_bound_is_ok():
    bound = SPEC.end_to_end["setup_s"].bound
    got, _ = verdicts(result_file(), result_file({"setup_s": 1 + bound / 2}))
    assert got[("fleet_sparse", "setup_s")] == "ok"


def test_spread_beyond_the_bound_is_unresolved():
    noisy = (0.6, 1.0, 1.5)
    got, _ = verdicts(result_file(wobble=noisy),
                      result_file({"latency_ms_p50": 1.2}, wobble=noisy))
    assert got[("play_cuts", "latency_ms_p50")] == "unresolved"


def test_separated_runs_settle_a_noisy_pair():
    noisy = (0.6, 1.0, 1.5)
    got, _ = verdicts(result_file(wobble=noisy),
                      result_file({"latency_ms_p50": 4.0}, wobble=noisy))
    assert got[("play_cuts", "latency_ms_p50")] == "regression"
    got, _ = verdicts(result_file(wobble=noisy),
                      result_file({"latency_ms_p50": 0.2}, wobble=noisy))
    assert got[("play_cuts", "latency_ms_p50")] == "ok"


def test_higher_fail_share_and_failed_checks_are_problems():
    _, problems = verdicts(result_file(), result_file(failed=3))
    assert len(problems) == len(SPEC.workloads)
    assert "fail_share" in problems[0]
    _, problems = verdicts(result_file(failed=3), result_file(failed=3))
    assert not problems
    _, problems = verdicts(result_file(), result_file(correct=False))
    assert problems and "correctness" in problems[0]


@pytest.mark.parametrize("scale, code", [
    ({}, 0), ({"throughput_per_s": 0.5}, 1)])
def test_exit_code(tmp_path, capsys, scale, code):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result_file()))
    b.write_text(json.dumps(result_file(scale)))
    assert compare.main([str(a), str(b)]) == code
    table = capsys.readouterr().out
    assert "throughput_per_s" in table and "bound" in table


def test_fail_share_alone_fails_the_comparison(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result_file()))
    b.write_text(json.dumps(result_file(failed=1)))
    assert compare.main([str(a), str(b)]) == 1
