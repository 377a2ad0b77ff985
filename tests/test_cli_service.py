"""The 1.6 CLI surface: `repro store stats|verify` and the service
client commands (`repro submit|jobs|fetch`) driven against a live
in-thread server.  Every failure mode exits non-zero with a one-line
diagnostic; `store verify` exits 2 on corruption so CI can gate on
it."""

import json

import pytest

from repro.cli import main
from repro.results import ResultStore, campaign_key
from repro.service import CampaignService, serving
from repro.suite import SuiteRunner

from test_results_store import sample_set
from test_suite import tiny_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def seeded_store(tmp_path):
    """A store with one suite's artifacts plus a loose campaign entry."""
    root = str(tmp_path / "store")
    SuiteRunner(store=root).run(tiny_suite())
    ResultStore(root).put(
        campaign_key({"campaign": "loose"}), sample_set(), {"x": 1}
    )
    return root


class TestStoreStats:
    def test_stats_text(self, capsys, seeded_store):
        code, out, _ = run_cli(
            capsys, "store", "stats", "--store", seeded_store
        )
        assert code == 0
        assert seeded_store in out
        assert "campaigns" in out and "total_bytes" in out

    def test_stats_json(self, capsys, seeded_store):
        code, out, _ = run_cli(
            capsys, "store", "stats", "--store", seeded_store, "--json"
        )
        assert code == 0
        usage = json.loads(out)
        assert usage["campaigns"] == 4  # 3 suite cells + the loose entry
        assert usage["payload_bytes"] > 0


class TestStoreVerify:
    def test_clean_store_exits_zero(self, capsys, seeded_store):
        code, out, _ = run_cli(
            capsys, "store", "verify", "--store", seeded_store
        )
        assert code == 0
        assert "store ok" in out

    def test_corrupt_store_exits_two(self, capsys, seeded_store):
        store = ResultStore(seeded_store)
        victim = store.keys()[0]
        with open(store._payload_path(victim), "a") as handle:
            handle.write('{"f":"evil","k":"sa1"}\n')
        code, out, _ = run_cli(
            capsys, "store", "verify", "--store", seeded_store
        )
        assert code == 2
        assert "FAIL" in out and "sha256 mismatch" in out

    def test_corrupt_store_exits_two_in_json_mode(
        self, capsys, seeded_store
    ):
        store = ResultStore(seeded_store)
        with open(store._payload_path(store.keys()[0]), "a") as handle:
            handle.write("garbage\n")
        code, out, _ = run_cli(
            capsys, "store", "verify", "--store", seeded_store, "--json"
        )
        assert code == 2
        assert json.loads(out)["ok"] is False


@pytest.fixture
def live_service(tmp_path):
    """A real server on an ephemeral port, torn down after the test."""
    with CampaignService(str(tmp_path / "store"), workers=1) as service:
        with serving(service) as url:
            yield url, service


class TestClientCommands:
    def test_submit_wait_jobs_fetch_round_trip(
        self, capsys, tmp_path, live_service
    ):
        url, _service = live_service
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(tiny_suite().to_json())

        code, out, err = run_cli(
            capsys, "submit", str(spec_path), "--url", url, "--wait",
            "--json"
        )
        assert code == 0
        job = json.loads(out)
        assert job["state"] == "done"
        # progress streamed to stderr (polling may skip snapshots on a
        # fast suite, but the final [3/3] always lands), stdout stayed
        # machine-readable JSON
        assert "[3/3]" in err

        code, out, _ = run_cli(capsys, "jobs", "--url", url)
        assert code == 0
        assert job["job_id"] in out and "done" in out

        code, out, _ = run_cli(
            capsys, "jobs", job["job_id"], "--url", url
        )
        assert code == 0
        assert "3/3" in out

        # the wire body is compact; the CLI prints it indented
        code, out, _ = run_cli(
            capsys, "jobs", job["job_id"], "--url", url, "--json"
        )
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert json.loads(out)["job_id"] == job["job_id"]

        key = job["result_keys"][0]
        code, out, _ = run_cli(capsys, "fetch", key, "--url", url)
        assert code == 0
        assert json.loads(out)["kind"] == "campaign"

        code, out, _ = run_cli(
            capsys, "fetch", key, "--records", "--url", url
        )
        assert code == 0
        lines = out.splitlines()
        assert lines and all(json.loads(line) for line in lines)

    def test_submit_without_wait_returns_queued_job(
        self, capsys, tmp_path, live_service
    ):
        url, service = live_service
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(tiny_suite().to_json())
        code, out, _ = run_cli(
            capsys, "submit", str(spec_path), "--url", url
        )
        assert code == 0
        assert "poll with" in out
        # drain the job so the fixture teardown isn't racing a run
        job_id = out.split()[1]
        from repro.service import InProcessClient

        InProcessClient(service).wait(job_id, timeout=120)

    def test_submit_builtin_with_bad_option_fails_cleanly(
        self, capsys, live_service
    ):
        url, _service = live_service
        code, _, err = run_cli(
            capsys, "submit", "smoke", "--url", url, "--workers", "0"
        )
        assert code == 1
        assert "error:" in err and "workers" in err

    def test_malformed_spec_file_fails_cleanly(
        self, capsys, tmp_path, live_service
    ):
        url, _service = live_service
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            capsys, "submit", str(bad), "--url", url
        )
        assert code == 1
        assert "malformed suite spec" in err

    def test_unknown_job_fails_cleanly(self, capsys, live_service):
        url, _service = live_service
        code, _, err = run_cli(capsys, "jobs", "nope", "--url", url)
        assert code == 1
        assert "error:" in err

    def test_unreachable_server_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "jobs", "--url", "http://127.0.0.1:9"
        )
        assert code == 1
        assert "cannot reach" in err


class TestServeCommand:
    """`repro serve` in-process: bind, banner, clean shutdown (the CI
    service-smoke job drives the real subprocess + SIGINT path)."""

    @pytest.fixture
    def interrupted_server(self, monkeypatch):
        """Make serve_forever raise immediately, as ctrl-C would."""
        from http.server import ThreadingHTTPServer

        def fake_serve_forever(self, poll_interval=0.5):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            ThreadingHTTPServer, "serve_forever", fake_serve_forever
        )

    def test_serve_banner_and_clean_shutdown(
        self, capsys, tmp_path, interrupted_server
    ):
        code, _, err = run_cli(
            capsys, "serve", "--store", str(tmp_path / "store"),
            "--port", "0"
        )
        assert code == 0
        assert "repro service on http://127.0.0.1:" in err
        assert "2 job worker(s)" in err
        assert "repro service stopped" in err

    def test_serve_reports_recovered_jobs(
        self, capsys, tmp_path, interrupted_server
    ):
        from repro.service import JobQueue

        root = str(tmp_path / "store")
        queue = JobQueue(root)
        record = queue.create(
            suite="tiny", spec=tiny_suite().to_dict()
        )
        queue.transition(record.job_id, "running")

        code, _, err = run_cli(capsys, "serve", "--store", root)
        assert code == 0
        assert f"recovered 1 interrupted job(s): {record.job_id}" in err

    def test_serve_names_the_jobs_recovery_cancelled(
        self, capsys, tmp_path, interrupted_server
    ):
        # the previous server died after persisting a cancel request on
        # one running job; another running job had none
        from repro.service import JobQueue

        root = str(tmp_path / "store")
        queue = JobQueue(root)
        doomed = queue.create(
            suite="tiny", spec=tiny_suite().to_dict(), job_id="doomed"
        )
        queue.transition(doomed.job_id, "running")
        queue.update(doomed.job_id, progress={"cancel_requested": True})
        resumed = queue.create(
            suite="tiny", spec=tiny_suite().to_dict(), job_id="resumed"
        )
        queue.transition(resumed.job_id, "running")

        code, _, err = run_cli(capsys, "serve", "--store", root)
        assert code == 0
        lines = err.splitlines()
        assert "recovered 1 interrupted job(s): resumed" in lines
        assert (
            "cancelled 1 interrupted job(s) with a pending cancel "
            "request: doomed"
        ) in lines
        assert JobQueue(root).get("doomed").state == "cancelled"

    def test_serve_rejects_bad_workers(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "serve", "--store", str(tmp_path / "store"),
            "--workers", "0"
        )
        assert code == 1
        assert "--workers" in err
