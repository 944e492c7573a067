"""The one run path and the one process pool: a checked run, picklable
jobs, deterministic merging, the serial fallback, one worker count, and
workers that never outlive — or hang — the call."""

import os
import pickle
import threading

import pytest

from repro.apps.jacobi import JacobiApp
from repro.config import ClusterConfig, ConfigError
from repro.exps.parallel import Job, WorkerError, fork_map, run_app, run_jobs, worker_count


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


def test_worker_count_caps_at_item_count(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert worker_count(8, items=3) == 3
    assert worker_count(1, items=100) == 1
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert worker_count(None, items=10) == 2


def test_the_default_count_is_the_cpus_this_process_may_run_on(monkeypatch):
    """Pinned to one CPU of four (``taskset -c 0``), a sweep and a batch
    both get one worker."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count(None, items=8) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert worker_count(None, items=8) == 3


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_repro_workers_is_a_config_error(monkeypatch, value):
    monkeypatch.setenv("REPRO_WORKERS", value)
    with pytest.raises(ConfigError) as excinfo:
        worker_count(None, items=4)
    assert excinfo.value.field == "REPRO_WORKERS"
    assert excinfo.value.value == value
    assert "REPRO_WORKERS" in str(excinfo.value) and value in str(excinfo.value)
    # An explicit count never consults the environment.
    assert worker_count(3, items=4) == 3


@pytest.mark.parametrize("workers", [0, -2])
def test_explicit_workers_below_one_is_a_config_error(monkeypatch, workers):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    with pytest.raises(ConfigError) as excinfo:
        worker_count(workers, items=4)
    assert excinfo.value.field == "workers"
    assert excinfo.value.value == workers
    assert excinfo.value.known == ("an integer >= 1",)


def test_serial_fallback_matches_direct_run_app():
    job = Job("dotprod", {"n": 2048}, nprocs=2)
    (via_runner,) = run_jobs([job], workers=1)
    direct = run_app(job.factory(), 2)
    assert via_runner.time_ns == direct.time_ns
    assert via_runner.counters.snapshot() == direct.counters.snapshot()


def test_pool_results_merge_in_job_order(forks):
    # Two workers on tiny jobs: completion order must not leak into the
    # merge, and every result must be bit-identical to the serial run.
    jobs = [Job("dotprod", {"n": 2048}, nprocs=p, key=p) for p in (2, 1)]
    serial = run_jobs(jobs, workers=1)
    assert forks == []
    pooled = run_jobs(jobs, workers=2)
    assert len(forks) == 2  # really forked: a serial run cannot pass
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


def test_observed_jobs_return_their_handle_from_a_pool(forks):
    # The handle rides RunResult back from a worker; observing changes
    # no number, and each ObsConfig field reached the worker's run.
    from repro.config import ObsConfig

    obs = ObsConfig(timeline_window_ns=20_000_000, sample_every=4, hist_backend="logbucket")
    jobs = [
        Job("dotprod", {"n": 2048}, nprocs=p, config=ClusterConfig(obs=obs)) for p in (2, 1)
    ]
    plain = run_jobs([Job(j.app, j.app_args, j.nprocs) for j in jobs], workers=1)
    serial = run_jobs(jobs, workers=1)
    assert forks == []
    pooled = run_jobs(jobs, workers=2)
    assert len(forks) == 2
    for ref, one, two in zip(plain, serial, pooled):
        assert (one.time_ns, one.events_executed) == (ref.time_ns, ref.events_executed)
        assert (two.time_ns, two.events_executed) == (ref.time_ns, ref.events_executed)
        assert not ref.obs and one.obs and two.obs
        assert two.obs.timeline.window_ns == 20_000_000
        assert [s.sid for s in two.obs.spans] == [s.sid for s in one.obs.spans]
        assert two.obs.metrics.snapshot() == one.obs.metrics.snapshot()


# ----------------------------------------------------------------------
# a job that raises or dies is a located error, never a hang


@pytest.mark.parametrize("how", ["raises", "exits"])
def test_a_failing_job_is_a_located_error(how, monkeypatch, deadline, reaped):
    """A job that dies (as an OOM kill would end it) or raises in a
    worker comes back at once as a WorkerError naming the job."""
    real = Job.run

    def failing(job):
        if job.key == "bad":
            if how == "exits":
                os._exit(3)
            raise ValueError("boom")
        return real(job)

    monkeypatch.setattr(Job, "run", failing)
    jobs = [Job("dotprod", {"n": 2048}, nprocs=p, key=key) for p, key in ((1, "ok"), (2, "bad"))]
    with pytest.raises(WorkerError) as caught:
        run_jobs(jobs, workers=2)
    message = str(caught.value)
    assert "item 1 (Job(app='dotprod'" in message
    assert "nprocs=2" in message and "key='bad'" in message
    expected = "exited with status 3" if how == "exits" else "raised ValueError: boom"
    assert expected in message
    reaped()


def test_with_another_thread_alive_jobs_run_in_process(forks):
    """A fork copies the locks of threads it does not copy."""
    jobs = [Job("dotprod", {"n": 2048}, nprocs=p) for p in (2, 1)]
    serial = run_jobs(jobs, workers=1)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        threaded = run_jobs(jobs, workers=2)
    finally:
        release.set()
        other.join(timeout=10)
    assert forks == []
    assert [r.time_ns for r in threaded] == [r.time_ns for r in serial]


def test_an_inherited_iterator_leaves_its_workers_to_the_parent(deadline, reaped):
    """A process forked while a hand-out is under way inherits the
    iterator; finalizing the copy there (the collector will, some time)
    must not stop workers that are not its children."""
    depths = fork_map(len, [(0,) * n for n in range(40)], 2)
    assert next(depths) == 0
    pid = os.fork()
    if pid == 0:
        depths.close()
        os._exit(0)
    assert os.waitpid(pid, 0) == (pid, 0)
    assert list(depths) == list(range(1, 40))
    reaped()
