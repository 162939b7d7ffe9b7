"""Run hygiene: scratch space inside the checkout, spawned servers that are
always stopped and reaped, and the environment a run is recorded with."""

from __future__ import annotations

import os
import platform
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.service import ServiceClient, ServiceClientError

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Every file a run writes lives under here (it is git-ignored).
SCRATCH = ROOT / ".perfbench"

_BANNER = re.compile(r"listening on (http://[^\s]+)")
SPAWN_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


def scratch_dir(prefix: str) -> Path:
    """A fresh directory for one run's stores, logs and traces."""
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


def child_env(scratch: Path) -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["TMPDIR"] = str(scratch)
    return env


class ServerProcess:
    """One ``repro serve`` or ``repro fleet`` subprocess on a loopback port.

    Use as a context manager: leaving the block always SIGTERMs the server,
    waits for its drain, and kills its whole process group if it does not
    exit in time, so no replica or exec worker outlives the run.
    """

    def __init__(self, command: str, args: list[str], scratch: Path, name: str):
        self.command = command
        self.args = args
        self.scratch = scratch
        self.log_path = scratch / f"{name}.log"
        self.process: subprocess.Popen | None = None
        self.url: str | None = None
        self.exit_code: int | None = None

    def start(self) -> "ServerProcess":
        """Spawn and block until ``/v1/healthz`` answers 200."""
        try:
            return self._start()
        except BaseException:
            self.stop()
            raise

    def _start(self) -> "ServerProcess":
        argv = [sys.executable, "-m", "repro.cli", self.command]
        argv += ["--host", "127.0.0.1", "--port", "0", "--quiet", *self.args]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                argv,
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=child_env(self.scratch),
                cwd=self.scratch,
                start_new_session=True,
            )
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while self.url is None:
            self._check_alive(deadline)
            match = _BANNER.search(self.log_path.read_text(errors="replace"))
            if match:
                self.url = match.group(1)
            else:
                time.sleep(0.005)
        client = ServiceClient(self.url, timeout=10.0)
        try:
            while True:
                self._check_alive(deadline)
                try:
                    if client.healthz().get("status") == "ok":
                        return self
                except ServiceClientError:
                    pass
                time.sleep(0.005)
        finally:
            client.close()

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(
                f"{self.command} exited with {self.process.returncode}: "
                f"{self.log_path.read_text(errors='replace')[-2000:]}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"{self.command} not healthy in {SPAWN_TIMEOUT_S}s")

    def peak_rss_mib(self) -> float:
        """The server process's peak resident set size (``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kib / 1024.0

    def stop(self) -> int:
        """SIGTERM, wait for the drain, reap; the exit code."""
        process = self.process
        if process is None or self.exit_code is not None:
            return self.exit_code if self.exit_code is not None else 0
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            self.exit_code = process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.exit_code = -signal.SIGKILL
        finally:
            # Whatever the leader did, nothing it started may survive it.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.wait()
        return self.exit_code

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, str]:
    import numpy
    import scipy

    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }
