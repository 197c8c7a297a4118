"""Single-process open-loop HTTP/1.1 load generator over raw sockets.

Requests follow a precomputed schedule of due times and are sent when
due, whatever the server is doing (an open loop: independent users). Up
to ``connections`` keep-alive sockets carry them, pipelined: a request is
written on the connection with the fewest responses outstanding even if
earlier ones have not been answered. Latency is measured from each
request's *due* time, so a stall also counts against every request that
fell due behind it; the generator's own lateness (send time minus due
time) is reported so a sloppy run can be told apart from a slow server.

The generator never sleeps: it polls its sockets with a zero
``select`` timeout until the next request is due. On virtual machines a
sleeping process can wake milliseconds late (measured on a 2-vCPU VM: a
3 ms ``select`` timeout overshot by 3-5 ms at the 99th percentile, while
a spinning loop saw no gap above 0.5 ms), which would make the generator,
not the server, set the tail. The price is one busy core.
"""

from __future__ import annotations

import select
import socket
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LoadResult:
    """Per-request timings (``perf_counter`` seconds) and responses.

    ``sent``/``done`` are NaN for requests never sent / never answered;
    ``status`` is 0 for a request that got no response (a drop).
    """

    start: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    bodies: list = field(repr=False)
    end: float = 0.0

    @property
    def lateness_s(self) -> np.ndarray:
        """Send time minus due time of every sent request."""
        sent = ~np.isnan(self.sent)
        return self.sent[sent] - (self.start + self.due[sent])

    def latency_from_due_s(self, missing: float) -> np.ndarray:
        """Completion minus due time; ``missing`` for failed requests."""
        latency = self.done - (self.start + self.due)
        failed = np.isnan(latency) | (self.status == 0) | (self.status >= 500)
        latency[failed] = missing
        return latency


class _Connection:
    __slots__ = ("sock", "out", "inbuf", "outstanding", "alive")

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.outstanding: list[int] = []
        self.alive = True

    def flush(self) -> None:
        while self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def responses(self):
        """Yield ``(status, body)`` for every complete buffered response."""
        buf = self.inbuf
        while True:
            head_end = buf.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = bytes(buf[:head_end]).decode("latin-1")
            lines = head.split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            total = head_end + 4 + length
            if len(buf) < total:
                return
            body = bytes(buf[head_end + 4:total])
            del buf[:total]
            yield status, body


def run_open_loop(
    host: str,
    port: int,
    due: np.ndarray,
    request_bytes,
    *,
    connections: int,
    tick=None,
) -> LoadResult:
    """Send ``len(due)`` requests on schedule and collect the responses.

    ``request_bytes(i)`` builds the raw HTTP request for request ``i``.
    ``tick()`` is called about every 0.1 seconds (the caller
    samples server memory there). The schedule starts 50 ms after the
    call; requests still unanswered 10 seconds after the last one was due
    count as drops.
    """
    count = len(due)
    conns = [_Connection(host, port) for _ in range(connections)]
    sent = np.full(count, np.nan)
    done = np.full(count, np.nan)
    status = np.zeros(count, dtype=np.int64)
    bodies: list = [None] * count
    start = time.perf_counter() + 0.05
    deadline = start + (float(due[-1]) if count else 0.0) + 10.0
    next_tick = start
    i = 0
    try:
        while True:
            now = time.perf_counter()
            while i < count and start + due[i] <= now:
                live = [c for c in conns if c.alive]
                if not live:
                    break
                conn = min(live, key=lambda c: len(c.outstanding))
                conn.out += request_bytes(i)
                conn.flush()
                sent[i] = time.perf_counter()
                conn.outstanding.append(i)
                i += 1
            waiting = any(c.outstanding for c in conns if c.alive)
            if i >= count and not waiting:
                break
            if not any(c.alive for c in conns):
                break
            if now > deadline:
                break
            if tick is not None and now >= next_tick:
                tick()
                next_tick = now + 0.1
            live = [c for c in conns if c.alive]
            readable, writable, _ = select.select(
                [c.sock for c in live],
                [c.sock for c in live if c.out],
                [],
                0.0,
            )
            for conn in live:
                if conn.sock in writable:
                    conn.flush()
                if conn.sock not in readable:
                    continue
                try:
                    data = conn.sock.recv(1 << 16)
                except (BlockingIOError, InterruptedError):
                    continue
                except ConnectionError:
                    data = b""
                if not data:
                    conn.alive = False
                    continue
                now = time.perf_counter()
                conn.inbuf += data
                for code, body in conn.responses():
                    if not conn.outstanding:
                        break
                    k = conn.outstanding.pop(0)
                    done[k] = now
                    status[k] = code
                    bodies[k] = body
    finally:
        for conn in conns:
            conn.sock.close()
    return LoadResult(
        start=start, due=np.asarray(due, dtype=np.float64), sent=sent,
        done=done, status=status, bodies=bodies, end=time.perf_counter(),
    )
