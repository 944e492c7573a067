"""The one run path: a checked run, picklable jobs, deterministic
merging and the serial fallback."""

import pickle

import pytest

from repro.apps.jacobi import JacobiApp
from repro.config import ClusterConfig, ConfigError
from repro.exps.parallel import Job, resolve_workers, run_app, run_jobs


def test_job_spec_is_picklable():
    job = Job(
        "jacobi", {"n": 64, "iters": 2}, nprocs=2,
        config=ClusterConfig().with_svm(page_size=512), key=("jacobi", 2),
    )
    clone = pickle.loads(pickle.dumps(job))
    assert clone == job


def test_run_app_checks_the_result():
    class Lying(JacobiApp):
        def check(self, result):
            raise AssertionError("always wrong")

    with pytest.raises(AssertionError, match="always wrong"):
        run_app(lambda p: Lying(p, n=16, iters=1), 1)


def test_unknown_app_is_a_loud_error():
    with pytest.raises(ConfigError, match="unknown app 'nope'"):
        Job("nope").factory()


def test_resolve_workers_caps_at_job_count(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(8, njobs=3) == 3
    assert resolve_workers(1, njobs=100) == 1
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert resolve_workers(None, njobs=10) == 2


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_repro_workers_is_a_config_error(monkeypatch, value):
    monkeypatch.setenv("REPRO_WORKERS", value)
    with pytest.raises(ConfigError) as excinfo:
        resolve_workers(None, njobs=4)
    assert excinfo.value.field == "REPRO_WORKERS"
    assert excinfo.value.value == value
    assert "REPRO_WORKERS" in str(excinfo.value) and value in str(excinfo.value)
    # An explicit count never consults the environment.
    assert resolve_workers(3, njobs=4) == 3


@pytest.mark.parametrize("workers", [0, -2])
def test_explicit_workers_below_one_is_a_config_error(monkeypatch, workers):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    with pytest.raises(ConfigError) as excinfo:
        resolve_workers(workers, njobs=4)
    assert excinfo.value.field == "workers"
    assert excinfo.value.value == workers
    assert excinfo.value.known == ("an integer >= 1",)


def test_serial_fallback_matches_direct_run_app():
    job = Job("dotprod", {"n": 2048}, nprocs=2)
    (via_runner,) = run_jobs([job], workers=1)
    direct = run_app(job.factory(), 2)
    assert via_runner.time_ns == direct.time_ns
    assert via_runner.counters.snapshot() == direct.counters.snapshot()


def test_pool_results_merge_in_job_order():
    # Two workers on tiny jobs: completion order must not leak into the
    # merge, and every result must be bit-identical to the serial run.
    jobs = [Job("dotprod", {"n": 2048}, nprocs=p, key=p) for p in (2, 1)]
    serial = run_jobs(jobs, workers=1)
    pooled = run_jobs(jobs, workers=2)
    assert [r.time_ns for r in pooled] == [r.time_ns for r in serial]
    assert [r.nprocs for r in pooled] == [2, 1]  # job order, not size order
    assert [r.counters.snapshot() for r in pooled] == [
        r.counters.snapshot() for r in serial
    ]


def test_per_job_config_is_honoured():
    small = Job("jacobi", {"n": 64, "iters": 2}, nprocs=2,
                config=ClusterConfig().with_svm(page_size=512))
    big = Job("jacobi", {"n": 64, "iters": 2}, nprocs=2,
              config=ClusterConfig().with_svm(page_size=2048))
    r_small, r_big = run_jobs([small, big], workers=1)
    # Different page sizes change fault counts — configs reached the runs.
    faults = lambda r: r.counters["read_faults"] + r.counters["write_faults"]
    assert faults(r_small) != faults(r_big)


def test_observed_jobs_return_their_handle_from_a_pool():
    # The handle rides RunResult back from a worker; observing changes
    # no number, and each ObsConfig field reached the worker's run.
    from repro.config import ObsConfig

    obs = ObsConfig(timeline_window_ns=20_000_000, sample_every=4, hist_backend="logbucket")
    jobs = [
        Job("dotprod", {"n": 2048}, nprocs=p, config=ClusterConfig(obs=obs)) for p in (2, 1)
    ]
    plain = run_jobs([Job(j.app, j.app_args, j.nprocs) for j in jobs], workers=1)
    serial = run_jobs(jobs, workers=1)
    pooled = run_jobs(jobs, workers=2)
    for ref, one, two in zip(plain, serial, pooled):
        assert (one.time_ns, one.events_executed) == (ref.time_ns, ref.events_executed)
        assert (two.time_ns, two.events_executed) == (ref.time_ns, ref.events_executed)
        assert not ref.obs and one.obs and two.obs
        assert two.obs.timeline.window_ns == 20_000_000
        assert [s.sid for s in two.obs.spans] == [s.sid for s in one.obs.spans]
        assert two.obs.metrics.snapshot() == one.obs.metrics.snapshot()
