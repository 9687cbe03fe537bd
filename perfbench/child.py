"""Parent-side handle on one ``server.py`` process."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
import types
from typing import Any, Dict, List, Optional

import procstat

SERVER_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")
#: Seconds a stopped server may take to exit before it is killed.
EXIT_TIMEOUT_S = 30.0


class ServerError(RuntimeError):
    """The server process reported an exception or died."""


class ServerProcess:
    """A ``server.py`` child; :meth:`call` sends one request and waits.

    The child inherits the environment unchanged: the benchmark sets no
    BLAS, OpenMP or affinity variable for the program.
    """

    def __init__(self) -> None:
        self.launched_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, SERVER_SCRIPT],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.pids: List[int] = [self.process.pid]
        self.address: Optional[str] = None
        #: Recording flag of the generator's client tracer, opened and
        #: closed together with the server's measurement window.
        self.client_window = types.SimpleNamespace(value=False)

    def call(self, op: str, *args: Any) -> Any:
        try:
            pickle.dump((op, args), self.process.stdin)
            self.process.stdin.flush()
            status, reply = pickle.load(self.process.stdout)
        except (BrokenPipeError, EOFError) as error:
            raise ServerError(f"server process died during {op!r}") from error
        if status != "ok":
            raise ServerError(f"server failed in {op!r}:\n{reply}")
        return reply

    def window(self, on: bool) -> None:
        """Open or close the measurement window of every tracer involved."""
        self.call("window", on)
        self.client_window.value = on

    def cpu_by_pid(self) -> Dict[int, float]:
        return {pid: procstat.cpu_seconds(pid) for pid in self.pids}

    def peak_rss_mb(self) -> float:
        return sum(procstat.peak_rss_mb(pid) for pid in self.pids)

    def stop(self) -> Any:
        """Ask the server to shut down and wait for it; returns its reply."""
        try:
            reply = self.call("stop")
        finally:
            self.close()
        return reply

    def close(self) -> None:
        """Wait for the process to end, killing it if it does not."""
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
