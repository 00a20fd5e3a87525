"""Tests of the benchmark itself: each checker rejects a wrong answer.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

import dataclasses
import json
import math

import pytest

import run
import spans
import workloads
from char2kit import crosscorr, curves, expsums, gf2m, zeta


def _off_by_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


def _swap_n1(fn):
    def swapped(*args, **kwargs):
        out = dict(fn(*args, **kwargs))
        out["N1"], out["N-1"] = out["N-1"], out["N1"]
        return out
    return swapped


def test_checks_count_attempts_failures_and_raises():
    ck = workloads.Checks()
    ck.eq("same", 3, 3)
    ck.eq("differs", 3, 4)
    ck.raised("block", ValueError("boom"))
    assert (ck.attempted, ck.failed) == (3, 2)
    assert ck.failures == ["differs: observed 3, expected 4", "block: raised ValueError: boom"]


def test_curves_checker_rejects_off_by_one_prediction(monkeypatch):
    ck = workloads.Checks()
    workloads.curves_job(ck, "p4", s_max=5, s_generic=2)
    assert (ck.attempted, ck.failed) == (5 + 2 + 1, 0)
    monkeypatch.setattr(zeta, "predicted_count", _off_by_one(zeta.predicted_count))
    ck = workloads.Checks()
    workloads.curves_job(ck, "p4", s_max=5, s_generic=2)
    assert ck.failed == 5


def test_curves_checker_rejects_wrong_singular_points(monkeypatch):
    monkeypatch.setattr(curves, "singular_points", lambda P, s: [(1, 1, 1)])
    ck = workloads.Checks()
    workloads.curves_job(ck, "p3", s_max=2, s_generic=1)
    assert ck.failed == 1


@pytest.mark.parametrize("job", [workloads.corrdist_job, workloads.weights_job])
def test_spectrum_checkers_reject_swapped_multiplicity(monkeypatch, job):
    ck = workloads.Checks()
    job(ck, 7, 3)
    assert ck.attempted > 0 and ck.failed == 0
    monkeypatch.setattr(crosscorr, "theorem1_multiplicities",
                        _swap_n1(crosscorr.theorem1_multiplicities))
    ck = workloads.Checks()
    job(ck, 7, 3)
    assert ck.failed == 2


def test_weights_checker_rejects_a_wrong_weight_count(monkeypatch):
    original = crosscorr.weight_distribution

    def moved(m, k):
        dist = original(m, k)
        entries = dict(dist.entries)
        low, high = min(w for w in entries if w), max(entries)
        entries[low] -= 1
        entries[high] += 1
        return dataclasses.replace(dist, entries=entries)

    monkeypatch.setattr(crosscorr, "weight_distribution", moved)
    ck = workloads.Checks()
    workloads.weights_job(ck, 7, 1)
    assert ck.failed >= 1


def test_fieldsums_checker_rejects_a_wrong_kloosterman_sum(monkeypatch):
    ck = workloads.Checks()
    workloads.fieldsums_job(ck, 7, 1)
    assert (ck.attempted, ck.failed) == (4, 0)
    original = expsums.kloosterman

    def wrong(m):
        rep = original(m)
        return dataclasses.replace(rep, value=rep.value + 2,
                                   trace_zero_count=rep.trace_zero_count + 1)

    monkeypatch.setattr(expsums, "kloosterman", wrong)
    ck = workloads.Checks()
    workloads.fieldsums_job(ck, 7, 1)
    assert ck.failed == 2  # K = -P_m(z2) and K' = K


def test_fieldsums_checker_rejects_a_wrong_k_prime(monkeypatch):
    monkeypatch.setattr(zeta, "singular_correction", _off_by_one(zeta.singular_correction))
    ck = workloads.Checks()
    workloads.fieldsums_job(ck, 6, 3)
    assert (ck.attempted, ck.failed) == (3, 1)


def test_a_raising_job_is_one_failed_check():
    ck = workloads.Checks()
    workloads.run_job(("fieldsums", 7, 2), ck)
    assert (ck.attempted, ck.failed) == (1, 1)


def test_acceptance_counts_a_raising_criterion_once_and_runs_the_rest(monkeypatch):
    def broken(m, k, cap=None):
        raise RuntimeError("brute force broken")

    monkeypatch.setattr(crosscorr, "a1_bruteforce", broken)
    monkeypatch.setattr(zeta, "singular_correction", _off_by_one(zeta.singular_correction))
    ck = workloads.Checks()
    workloads.acceptance_job(ck)
    # 290 checks at the defaults; C4's seven collapse into one raise.
    assert ck.attempted == 290 - 7 + 1
    assert ck.failures[0].startswith("C4: raised RuntimeError")
    # singular_correction feeds C7 (p1tilde, s <= 8), C8 (m <= 18) and C11.
    assert ck.failed == 1 + 8 + 18 + 1


def test_rounds_repeat_for_a_seed_and_keep_the_job_mix():
    a = workloads.rounds("spectrum", 5, 3)
    assert a == workloads.rounds("spectrum", 5, 3)
    b = workloads.rounds("spectrum", 6, 3)
    kinds = [sorted(j[:2] for j in rnd) for rnd in a + b]
    assert all(k == kinds[0] for k in kinds)
    assert all(math.gcd(k, m) == 1 for rnd in a for _, m, k in rnd)


@pytest.mark.parametrize("n, p, rank", [(11, 9, 1), (12, 16, 2), (20, 50, 10), (24, 58, 14),
                                         (110, 90, 99)])
def test_tail_is_the_highest_percentile_with_ten_jobs_beyond(n, p, rank):
    times = [float(i) for i in range(n, 0, -1)]
    value, percentile = run.tail(times)
    assert (percentile, value) == (p, float(rank))
    assert sum(t > value for t in times) >= 10


def test_tail_needs_eleven_jobs():
    with pytest.raises(run.BenchError):
        run.tail([1.0] * 10)


def test_layer_self_times_add_up_to_the_job_and_uninstall_restores():
    before = (gf2m.get_field, crosscorr.get_field, gf2m.Field.__init__, zeta.power_sums)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert crosscorr.get_field is expsums.get_field is not before[0]
        job = tracer.wrap(workloads.run_job, "bench")
        ck = workloads.Checks()
        before[0].cache_clear()
        job(("fieldsums", 7, 3), ck)
    finally:
        spans.uninstall(patches)
    assert (gf2m.get_field, crosscorr.get_field, gf2m.Field.__init__, zeta.power_sums) == before
    assert ck.failed == 0
    root = tracer.spans[0]
    assert root[0] == "bench" and root[3] == -1
    assert sum(tracer.self_times().values()) == pytest.approx(root[2] - root[1], abs=1e-9)
    assert tracer.counts["expsums.calls"] == 4
    assert tracer.counts["expsums.elements"] == 3 * 127 + 128
    assert tracer.counts["gf2m.builds"] == 1


def _tiny_curves(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for name in workloads.CURVES_S:
        monkeypatch.setitem(workloads.CURVES_S, name, workloads.GENERIC_S)


def test_main_prints_every_metric_and_exits_zero(monkeypatch, capsys, tmp_path):
    _tiny_curves(monkeypatch)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "job_s_p50", "job_s_tail", "checks_per_s",
                                      "peak_rss_mb"}
    assert run.main(["--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert {"gf2m.build_s", "curves.count_s", "trace.overhead_s", "bench.self_s"} <= set(result["metrics"])


def test_main_exits_nonzero_when_a_check_fails(monkeypatch, capsys, tmp_path):
    _tiny_curves(monkeypatch)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(zeta, "predicted_count", _off_by_one(zeta.predicted_count))
    assert run.main(["--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_main_refuses_a_checkout_without_the_program(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
