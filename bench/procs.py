"""Child processes as a user starts them: launch, /proc accounting, teardown.

The socket workloads run ``python -m repro serve`` and ``python -m repro
cluster serve`` as child processes.  Everything the benchmark knows about
them comes from outside: the address line they print, ``/proc`` for CPU
and memory of the whole process tree, and the process group for teardown.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
ADDRESS_LINE = re.compile(r"^(?:serving|cluster router) on ([\w.\-]+):(\d+)\b")


class LaunchError(RuntimeError):
    """The child did not print its address line."""


class LeakError(RuntimeError):
    """Teardown left a process or a directory behind."""


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the parenthesised command name (field 3
    on), or ``None`` once the process is gone."""
    try:
        with open("/proc/%d/stat" % pid, "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def group_pids(pgid: int) -> list[int]:
    """Live, non-zombie processes whose process group is ``pgid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, fields[2] the process group.
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            found.append(int(entry))
    return sorted(found)


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            ticks += int(fields[11]) + int(fields[12])  # utime + stime
    return ticks / CLOCK_TICKS


def peak_rss_mb(pids: list[int]) -> float:
    """High-water resident set, summed over ``pids`` (``VmHWM``)."""
    total_kb = 0
    for pid in pids:
        try:
            with open("/proc/%d/status" % pid, "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One launched ``serve`` / ``cluster serve`` process tree.

    The child leads its own session, so its process group is exactly the
    router plus the workers it spawns: :meth:`pids` reads the group from
    ``/proc`` and :meth:`stop` can prove that nothing outlives it.
    """

    def __init__(
        self, argv: list[str], src_dir: str, log_path: str, launch_timeout: float = 60.0
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log_path = log_path
        # The child writes to a file, not a pipe, so a chatty child can
        # never block on a reader that is busy generating load.
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", *argv],
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.pgid = self.process.pid
        try:
            self.host, self.port = self._read_address(launch_timeout)
        except BaseException:
            self.stop()
            raise

    def output(self) -> str:
        with open(self.log_path, "r", encoding="utf-8", errors="replace") as log:
            return log.read()

    def _read_address(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while True:
            for line in self.output().splitlines():
                match = ADDRESS_LINE.match(line)
                if match:
                    return match.group(1), int(match.group(2))
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise LaunchError(
                    "no address line from %r (exit code %r); output:\n%s"
                    % (self.process.args, self.process.poll(), self.output())
                )
            time.sleep(0.01)

    def pids(self) -> list[int]:
        return group_pids(self.pgid)

    def stop(self, grace: float = 15.0) -> None:
        """Interrupt the child as an operator would, wait for its drain,
        then kill whatever is left of the group.  Raises
        :class:`LeakError` if a process still survives."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 5.0
        while True:
            left = self.pids()
            if not left:
                break
            if time.monotonic() > deadline:
                raise LeakError("processes %r outlived teardown" % (left,))
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            time.sleep(0.05)
        self.process.wait()


def remove_tree(path: str) -> None:
    """Delete a scratch directory and prove it is gone."""
    shutil.rmtree(path, ignore_errors=True)
    if os.path.exists(path):
        raise LeakError("directory %s outlived teardown" % path)
