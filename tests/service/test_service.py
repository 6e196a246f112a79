"""Integration tests: the verification daemon end to end.

Each test boots a real :class:`VerificationService` — warm
:class:`SupervisedPool`, dispatcher thread, HTTP listener on an
ephemeral port — and talks to it through the stdlib
:class:`ServiceClient`, exactly as the ``--server`` CLI does.  The
invariants under test are the service's reason to exist: answers
bit-identical to local runs, identical in-flight tasks computed once,
warm restarts that serve yesterday's work from the journal, and a
daemon that keeps answering while its workers are being killed.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.service import ServiceClient, ServiceError, VerificationService
from repro.service.registry import read_state_file
from repro.testing import FaultPlan
from tests.api.test_sweep import ALL_PROTOCOLS, GOLDEN, stable

#: Sub-second validity bundles — the daemon tests' bread and butter.
FAST = ("cc85a", "ks16")


def make_tasks(protocols=FAST, targets=("validity",)):
    return [api.VerificationTask(protocol=name, targets=targets)
            for name in protocols]


def settle(*results):
    """The timing-free projection of results, via the sweep helper."""
    return stable(api.RunReport(results=tuple(results), processes=1))


@pytest.fixture
def service(tmp_path):
    svc = VerificationService(processes=2,
                              state_dir=str(tmp_path / "state"))
    svc.start()
    try:
        yield svc
    finally:
        svc.stop()


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


class TestVerify:
    def test_single_task_matches_the_local_engine(self, client):
        task = api.VerificationTask(protocol="cc85a",
                                    targets=("validity",))
        remote = client.verify(task)
        local = api.verify("cc85a", targets=("validity",))
        assert remote.cached is False
        assert settle(remote) == settle(local)

    def test_second_verify_is_served_warm(self, client):
        task = api.VerificationTask(protocol="ks16",
                                    targets=("validity",))
        cold = client.verify(task)
        warm = client.verify(task)
        assert cold.cached is False and warm.cached is True
        assert settle(cold) == settle(warm)


class TestSweep:
    def test_report_matches_the_local_sweep(self, client):
        report = client.submit(make_tasks())
        local = api.sweep(protocols=FAST, targets=("validity",),
                          processes=1)
        assert stable(report) == stable(local)
        assert report.request_id  # daemon stamped the stream

    def test_duplicate_tasks_in_one_request_compute_once(self, service,
                                                         client):
        tasks = make_tasks(("cc85a", "ks16", "cc85a"))
        report = client.submit(tasks)
        assert len(report.results) == 3
        assert report.deduped == 1
        deduped = [r for r in report.results if r.deduped]
        assert len(deduped) == 1
        assert settle(report.results[0]) == settle(deduped[0])
        assert service.status()["tasks_computed"] == 2

    def test_warm_second_pass_never_recomputes(self, service, client):
        cold = client.submit(make_tasks())
        warm = client.submit(make_tasks())
        assert stable(cold) == stable(warm)
        assert warm.cache_hits == len(warm.results)
        assert all(r.cached for r in warm.results)
        assert service.status()["tasks_computed"] == len(cold.results)


class TestConcurrentClients:
    def test_identical_inflight_task_is_joined_not_recomputed(
        self, service, client
    ):
        # rabin83/agreement runs for seconds — long enough for a second
        # client to arrive while the first's task is still in flight.
        task = api.VerificationTask(protocol="rabin83",
                                    targets=("agreement",))
        first = {}

        def submit_first():
            first["report"] = client.submit([task])

        thread = threading.Thread(target=submit_first)
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while service.status()["in_flight"] < 1:
                assert time.monotonic() < deadline, "task never in flight"
                time.sleep(0.01)
            second = ServiceClient(service.url).submit([task])
        finally:
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert second.deduped == 1
        assert second.results[0].deduped is True
        assert settle(first["report"].results[0]) \
            == settle(second.results[0])
        assert service.status()["tasks_computed"] == 1
        assert service.status()["dedup_hits"] == 1


class TestChaosUnderDaemon:
    def test_worker_kill_is_invisible_to_clients(self, tmp_path):
        plan = FaultPlan(scratch=str(tmp_path / "faults"))\
            .kill_task("ks16", nth=1)
        svc = VerificationService(
            processes=2, state_dir=str(tmp_path / "state"),
            task_timeout=15.0, fault_plan=plan,
        )
        svc.start()
        try:
            client = ServiceClient(svc.url)
            report = client.submit(make_tasks())
            local = api.sweep(protocols=FAST, targets=("validity",),
                              processes=1)
            assert stable(report) == stable(local)
            (victim,) = [r for r in report.results
                         if r.protocol == "ks16"]
            assert victim.attempts == 2
            assert svc.status()["worker_restarts"] >= 1
            # The respawned fleet keeps answering fresh work.
            again = client.submit(make_tasks(("fmr05",)))
            assert again.results[0].verdict == "holds"
            assert not again.results[0].cached
        finally:
            svc.stop()


class TestRestartResume:
    def test_restarted_daemon_serves_yesterdays_work_warm(self, tmp_path):
        state_dir = str(tmp_path / "state")
        first = VerificationService(processes=2, state_dir=state_dir)
        first.start()
        try:
            cold = ServiceClient(first.url).submit(make_tasks())
            assert read_state_file(tmp_path / "state")["pid"]
        finally:
            first.stop()
        assert read_state_file(tmp_path / "state") is None
        second = VerificationService(processes=2, state_dir=state_dir)
        second.start()
        try:
            status = second.status()
            assert status["journal_preloaded"] == len(cold.results)
            warm = ServiceClient(second.url).submit(make_tasks())
            assert stable(warm) == stable(cold)
            assert all(r.cached for r in warm.results)
            assert second.status()["tasks_computed"] == 0
        finally:
            second.stop()


class TestHttpSurface:
    def test_status_and_healthz_answer(self, service):
        with urllib.request.urlopen(service.url + "/v1/status") as resp:
            status = json.loads(resp.read())
        assert status["pid"] and status["port"] == service.port
        with urllib.request.urlopen(service.url + "/healthz") as resp:
            assert resp.status == 200

    def test_unknown_path_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(service.url + "/v1/nope")
        assert excinfo.value.code == 404

    def test_malformed_sweep_payload_is_400(self, service):
        for body in (b"not json", b'{"no": "tasks"}', b'{"tasks": []}',
                     b'{"tasks": "nope"}'):
            request = urllib.request.Request(
                service.url + "/v1/sweep", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400

    def test_client_wraps_connection_failures(self):
        lonely = ServiceClient("http://127.0.0.1:9")  # discard port
        with pytest.raises(ServiceError, match="service"):
            lonely.status(timeout=0.5)

    def test_bind_failure_reaps_the_warm_fleet(self, service):
        # The fleet forks before the port binds; a bind failure must
        # reap it, not orphan two warm workers behind a dead daemon.
        rival = VerificationService(port=service.port, processes=2)
        with pytest.raises(OSError):
            rival.start()
        assert not rival._pool.persistent  # close() ran, fleet reaped

    def test_sqlite_graph_store_is_refused_before_the_fleet_starts(
        self, tmp_path, monkeypatch
    ):
        from repro.errors import ValidationError

        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError, match="pass a directory path"):
            VerificationService(processes=2, graph_store="sqlite:graphs.db")
        assert list(tmp_path.iterdir()) == []

    def test_client_rejects_non_http_urls(self):
        with pytest.raises(ServiceError):
            ServiceClient("ftp://example.org:21")


@pytest.mark.slow_equivalence
class TestGoldenService:
    """Acceptance: the full 8-protocol sweep over HTTP reproduces
    ``seed_verdicts.json`` bit-for-bit, cold and warm."""

    def test_full_sweep_over_http_reproduces_seed_verdicts(self, tmp_path):
        svc = VerificationService(processes=4,
                                  state_dir=str(tmp_path / "state"))
        svc.start()
        try:
            client = ServiceClient(svc.url)
            tasks = [api.VerificationTask(protocol=name)
                     for name in ALL_PROTOCOLS]
            cold = client.submit(tasks)
            assert len(cold.results) == len(ALL_PROTOCOLS)
            for result in cold.results:
                assert not result.error
                for outcome in result.obligations:
                    got = {
                        "queries": [[q.query, q.verdict,
                                     q.states_explored]
                                    for q in outcome.queries],
                        "sides": dict(outcome.side_conditions),
                    }
                    assert got == GOLDEN[result.protocol][outcome.target]
            warm = client.submit(tasks)
            assert stable(warm) == stable(cold)
            assert warm.cache_hits == len(tasks)
            assert svc.status()["tasks_computed"] == len(tasks)
        finally:
            svc.stop()


class TestCoinModels:
    """The coin axis over the wire, and the daemon's default coin."""

    LIMITS = api.Limits(max_states=20_000)

    def test_coined_task_round_trips_and_flips_verdict(self, client):
        plain, split = client.submit([
            api.VerificationTask(protocol="cc85a", targets=("agreement",),
                                 limits=self.LIMITS),
            api.VerificationTask(protocol="cc85a", targets=("agreement",),
                                 limits=self.LIMITS, coin="disagreeing:1/8"),
        ]).results
        assert plain.verdict == "holds"
        assert split.verdict == "violated"
        assert "coin=disagreeing:1/8" in split.task_id

    def test_default_coin_fills_coinless_tasks_only(self, tmp_path):
        svc = VerificationService(processes=1,
                                  state_dir=str(tmp_path / "state"),
                                  default_coin="biased:1/4")
        svc.start()
        try:
            report = ServiceClient(svc.url).submit([
                api.VerificationTask(protocol="cc85a",
                                     targets=("agreement",),
                                     limits=self.LIMITS),
                api.VerificationTask(protocol="cc85a",
                                     targets=("agreement",),
                                     limits=self.LIMITS,
                                     coin="failing:1/8"),
            ])
            defaulted, explicit = report.results
            assert "coin=biased:1/4" in defaulted.task_id
            assert "coin=failing:1/8" in explicit.task_id
            status = json.loads(
                urllib.request.urlopen(f"{svc.url}/v1/status").read()
            )
            assert status["default_coin"] == "biased:1/4"
        finally:
            svc.stop()

    def test_perfect_default_coin_rewrites_nothing(self, tmp_path):
        svc = VerificationService(processes=1, default_coin="perfect")
        assert svc.default_coin is None
