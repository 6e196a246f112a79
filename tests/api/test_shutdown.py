"""SIGTERM mid-sweep: workers reaped, finished tasks cached, re-run served.

``SweepRunner.run`` installs a SIGTERM handler that converts the
signal into ``SystemExit(143)`` so the ``finally`` blocks run — the
pool reaps its workers instead of orphaning them.  Every finished task
is already a result-cache entry, so running the sweep again with the
same ``--cache-dir`` serves those as cache hits.  These tests drive
the real CLI in a subprocess and send the real signal.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

#: cc85a and ks16 finish (and are cached) in well under a second;
#: rabin83/agreement then holds a worker for seconds — the window in
#: which the test delivers SIGTERM.
MATRIX = "cc85a,ks16,rabin83"


def launch_sweep(cache_dir, extra=()):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.harness", "sweep",
         "--protocols", MATRIX, "--targets", "agreement",
         "--processes", "2", "--cache-dir", str(cache_dir), *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def children_of(pid):
    """Worker pids forked by ``pid``, via /proc (linux only)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:  # ppid is the field after state
            found.append(int(entry.name))
    return found


#: A result-cache entry: the 32-hex-char task key + ``.json``.
RESULT_ENTRY = re.compile(r"[0-9a-f]{32}\.json")


def cache_entries(cache_dir):
    if not cache_dir.exists():
        return []
    return [p for p in cache_dir.iterdir() if RESULT_ENTRY.fullmatch(p.name)]


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
class TestSigtermMidSweep:
    def test_sigterm_reaps_workers_and_rerun_serves_finished_tasks(
        self, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        proc = launch_sweep(cache_dir)
        try:
            # Wait for the fast tasks to land in the result cache — at
            # that point rabin83 is mid-flight on a warm worker.
            deadline = time.monotonic() + 120.0
            while len(cache_entries(cache_dir)) < 2:
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "cache never filled"
                time.sleep(0.05)
            workers = children_of(proc.pid)
            assert workers, "pool never forked workers"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()

        assert proc.returncode == 143  # 128 + SIGTERM
        # No orphans: every forked worker is gone shortly after exit.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = [pid for pid in workers if _alive(pid)]
            if not alive:
                break
            time.sleep(0.1)
        assert not alive, f"orphaned workers survive: {alive}"
        # ... and a re-run on the same cache dir serves the finished
        # tasks instead of recomputing them.
        rerun = launch_sweep(cache_dir, extra=("--json",))
        out, err = rerun.communicate(timeout=600.0)
        assert rerun.returncode == 0, err.decode()
        report = json.loads(out)
        cached = [r["protocol"] for r in report["results"] if r["cached"]]
        assert len(cached) >= 2
        assert {"cc85a", "ks16"} <= set(cached)
        verdicts = {r["protocol"]: r["verdict"] for r in report["results"]}
        assert verdicts == {"cc85a": "holds", "ks16": "holds",
                            "rabin83": "holds"}


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
