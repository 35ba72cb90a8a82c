"""The foreground server's lifecycle, seen from outside the process.

``python -m repro serve`` must stop the same way whether an operator
interrupts it or a client sends the protocol's ``drain`` op: stop
accepting, finish in-flight work, print the final ``service.*`` counter
block, exit 0.  (At the parent of the PR that added this file the
drained process closed its listener and then sat in
``threading.Event().wait()`` forever.)
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.client import ServiceClient

SRC = str(Path(__file__).resolve().parents[1] / "src")
BANNER = re.compile(r"^serving on ([\d.]+):(\d+) ", re.MULTILINE)
QUERY = "SELECT make, model, price WHERE make = 'saab'"


def _launch_serve(log_path: Path) -> tuple[subprocess.Popen, tuple[str, int]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with open(log_path, "wb") as log:
        child = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "--ads-per-host", "12",
             "serve", "--port", "0"],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
            # A test runner started as a background job hands down SIGINT
            # ignored, and Python then never installs KeyboardInterrupt.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
    deadline = time.monotonic() + 60.0
    while True:
        match = BANNER.search(log_path.read_text())
        if match:
            return child, (match.group(1), int(match.group(2)))
        if child.poll() is not None or time.monotonic() > deadline:
            child.kill()
            child.wait()
            pytest.fail("serve never announced its address:\n" + log_path.read_text())
        time.sleep(0.02)


@pytest.mark.parametrize("stop", ["drain", "sigint"])
def test_a_stopped_serve_prints_its_final_metrics_and_exits_zero(tmp_path, stop):
    log_path = tmp_path / "serve.log"
    child, address = _launch_serve(log_path)
    try:
        with ServiceClient(*address) as client:
            assert len(client.query(QUERY)) > 0
            if stop == "drain":
                client.drain()
        if stop == "sigint":
            child.send_signal(signal.SIGINT)
        assert child.wait(timeout=10.0) == 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    output = log_path.read_text()
    assert "final service metrics:" in output, output
    assert re.search(r"service\.completed\s+1\b", output), output
    assert re.search(r"service\.drains\s+1\b", output), output
