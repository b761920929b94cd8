"""A minimal HTTP/1.1 keep-alive client and the daemon's process handle.

The load generator speaks HTTP itself, over one blocking socket per
connection, rather than through ``repro.service.client``: the client side
then costs the same on every commit, and only the daemon is measured.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple


class Connection:
    """One keep-alive HTTP/1.1 connection (``Content-Length`` framing)."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self._sock = socket.create_connection((host, port), timeout=60)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""
        self._host = f"{host}:{port}"

    def request(
        self, method: str, path: str, body: bytes = b"", traceparent: str = ""
    ) -> Tuple[int, bytes]:
        """Send one request and read the whole response: ``(status, body)``."""
        extra = f"traceparent: {traceparent}\r\n" if traceparent else ""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n"
        )
        self._sock.sendall(head.encode("latin-1") + body)
        while b"\r\n\r\n" not in self._buf:
            self._recv()
        head_bytes, _, self._buf = self._buf.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(self._buf) < length:
            self._recv()
        payload, self._buf = self._buf[:length], self._buf[length:]
        return status, payload

    def json(self, method: str, path: str, body: bytes = b"",
             traceparent: str = "") -> Tuple[int, Dict]:
        """:meth:`request` with the body decoded as JSON."""
        status, payload = self.request(method, path, body, traceparent)
        return status, json.loads(payload)

    def _recv(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def close(self) -> None:
        """Close the socket."""
        self._sock.close()


class Daemon:
    """A ``repro serve`` process on an ephemeral port.

    ``argv`` is the command up to and including ``serve``; the port is
    read from the daemon's ``service listening ... port=N`` log line.
    :meth:`stop` sends SIGTERM (the daemon drains and exits) and waits.
    """

    def __init__(self, root: Path, argv: List[str], timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._proc = subprocess.Popen(
            [sys.executable, "-u", *argv, "--host", "127.0.0.1", "--port", "0"],
            cwd=str(root),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        self.pid = self._proc.pid
        self.port = self._read_port(timeout)

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        out = self._proc.stdout
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 0.5)
            if not ready:
                if self._proc.poll() is not None:
                    break
                continue
            line = out.readline()
            if not line:
                break
            seen += line
            if b"service listening" in line:
                for field in line.decode().split():
                    if field.startswith("port="):
                        return int(field[5:])
        self.stop()
        raise RuntimeError(f"daemon did not start: {seen.decode(errors='replace')}")

    def wait_healthy(self, timeout: float = 30.0) -> None:
        """Poll ``GET /healthz`` until it answers 200."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                conn = Connection(self.port)
                try:
                    status, _ = conn.request("GET", "/healthz")
                finally:
                    conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.01)

    def stop(self) -> Optional[int]:
        """SIGTERM, wait for exit (kill after 30 s); returns the exit code."""
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
        try:
            self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
        return self._proc.returncode
