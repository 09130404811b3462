"""Load generator process for the ``dashboard`` workload.

Runs as its own process so that its work never shares an interpreter
lock with the server under test.  It imports nothing from the program:
it reads a job file (address, request templates, key trace, phase
shape), drives at most two TCP connections with one selector loop, and
writes every request's outcome to a result file that the benchmark
checks against its reference answers.

Two phase shapes:

* ``open`` -- requests are due at evenly spaced times at a fixed rate,
  whatever the server does; latency is measured from the due time, so
  a stall also charges the requests queued behind it.  How late each
  send left is recorded.
* ``closed`` -- each connection keeps ``depth`` requests in flight and
  sends the next one only when an answer returns.

Usage: ``python3 loadgen.py JOB.json RESULT.json``
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import time


def _connect(address, count: int):
    conns = []
    for _ in range(count):
        sock = socket.create_connection(tuple(address), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conns.append(sock)
    return conns


def _send(sock, data: bytes) -> None:
    view = memoryview(data)
    while view:
        try:
            sent = sock.send(view)
        except BlockingIOError:
            time.sleep(0)
            continue
        view = view[sent:]


class _Run:
    """Bookkeeping shared by both phase shapes."""

    def __init__(self, job: dict):
        self.templates = [entry.encode() for entry in job["templates"]]
        self.trace = job["trace"]
        self.timeout = float(job["timeout_s"])
        self.conns = _connect(job["address"], int(job["connections"]))
        self.selector = selectors.DefaultSelector()
        self.buffers = {}
        for slot, sock in enumerate(self.conns):
            self.selector.register(sock, selectors.EVENT_READ, slot)
            self.buffers[slot] = b""
        self.keys: list[int] = []
        self.started: list[float] = []  # due time (open) or send time (closed)
        self.latency: list[float | None] = []
        self.status: list[str | None] = []
        self.estimate: list[float | None] = []
        self.noise_std: list[float | None] = []
        self.late: list[float] = []
        self.outstanding = 0

    def send(self, index: int, slot: int, start: float) -> None:
        key = self.trace[index % len(self.trace)]
        self.keys.append(key)
        self.started.append(start)
        self.latency.append(None)
        self.status.append(None)
        self.estimate.append(None)
        self.noise_std.append(None)
        _send(self.conns[slot], self.templates[key] % index)
        self.outstanding += 1

    def poll(self, wait: float) -> list[int]:
        """Read what arrived within ``wait`` seconds; returns slots answered."""
        answered = []
        for selector_key, _ in self.selector.select(max(wait, 0.0)):
            slot = selector_key.data
            sock = self.conns[slot]
            try:
                chunk = sock.recv(1 << 16)
            except BlockingIOError:
                continue
            now = time.perf_counter()
            if not chunk:
                raise ConnectionError("server closed a connection")
            lines = (self.buffers[slot] + chunk).split(b"\n")
            self.buffers[slot] = lines.pop()
            for line in lines:
                reply = json.loads(line)
                index = reply.get("id")
                if not isinstance(index, int) or not 0 <= index < len(self.status):
                    continue  # unmatched: the request stays unanswered
                if self.status[index] is not None:
                    continue
                self.latency[index] = now - self.started[index]
                if reply.get("ok"):
                    self.status[index] = "ok"
                    self.estimate[index] = reply.get("estimate")
                    self.noise_std[index] = reply.get("noise_std")
                else:
                    self.status[index] = str(reply.get("code", "error"))
                self.outstanding -= 1
                answered.append(slot)
        return answered

    def drain(self) -> None:
        """Wait for outstanding answers; the rest time out."""
        deadline = time.perf_counter() + self.timeout
        while self.outstanding and time.perf_counter() < deadline:
            self.poll(deadline - time.perf_counter())
        for index, status in enumerate(self.status):
            if status is None:
                self.status[index] = "timeout"
                self.latency[index] = self.timeout

    def close(self) -> None:
        self.selector.close()
        for sock in self.conns:
            sock.close()

    def result(self, **extra) -> dict:
        return dict(
            keys=self.keys,
            started=self.started,
            latency_s=self.latency,
            status=self.status,
            estimate=self.estimate,
            noise_std=self.noise_std,
            late_s=self.late,
            **extra,
        )


def run_open(job: dict) -> dict:
    run = _Run(job)
    try:
        rate = float(job["rate"])
        total = int(round(rate * float(job["seconds"])))
        slots = len(run.conns)
        start = time.perf_counter() + 0.05
        sent = 0
        while sent < total:
            due = start + sent / rate
            now = time.perf_counter()
            if now >= due:
                run.late.append(now - due)
                run.send(sent, sent % slots, due)
                sent += 1
                continue
            run.poll(due - now)
        elapsed = time.perf_counter() - start
        run.drain()
        return run.result(elapsed_s=elapsed)
    finally:
        run.close()


def run_closed(job: dict) -> dict:
    run = _Run(job)
    try:
        depth = int(job["depth"])
        seconds = float(job["seconds"])
        sent = 0
        start = time.perf_counter()
        for _ in range(depth):
            for slot in range(len(run.conns)):
                run.send(sent, slot, time.perf_counter())
                sent += 1
        end = start + seconds
        while True:
            now = time.perf_counter()
            if now >= end:
                break
            for slot in run.poll(end - now):
                run.send(sent, slot, time.perf_counter())
                sent += 1
        # Throughput counts answers that arrived inside the window.
        within = sum(
            1
            for begun, latency in zip(run.started, run.latency)
            if latency is not None and begun + latency <= end
        )
        run.drain()
        return run.result(elapsed_s=seconds, answered_in_window=within, window=[start, end])
    finally:
        run.close()


def main(argv) -> int:
    job_path, result_path = argv
    with open(job_path) as handle:
        job = json.load(handle)
    runner = {"open": run_open, "closed": run_closed}[job["shape"]]
    result = runner(job)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
