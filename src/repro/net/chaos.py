"""Fault-injecting TCP proxy for the CrowdDB wire protocol.

Sits between a :class:`~repro.net.client.NetClient` and a
:class:`~repro.net.server.NetworkServer` and injects the network
failures the robustness machinery must contain:

* **kill** — close both sides without warning after forwarding N frames
  (the client sees ``ConnectionLostError``, the server detaches);
* **tear** — like kill, but forward only half of the next frame first,
  so the victim dies mid-frame (length-prefix desync);
* **stall** — sleep before forwarding a frame (read-timeout pressure);
* **duplicate** — forward server→client frames twice (the client must
  dedup by ``fseq``) and/or client→server ``statement`` frames twice
  (the server must dedup by statement id — no double crowd spend).

The proxy is frame-aware in both directions: it reads one
length-prefixed frame at a time, so fault positions are deterministic
for a given arming, independent of TCP segmentation.  Faults are armed
per proxy with :meth:`arm` and apply to the *next* downstream
connection; an unarmed proxy forwards transparently.

Used by ``tests/test_chaos.py`` and the E21 chaos-sweep benchmark.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Optional

_LENGTH = struct.Struct(">I")


class _FaultPlan:
    """Faults for one proxied connection (server→client side unless
    noted).  ``kill_after_frames`` counts only that direction."""

    def __init__(
        self,
        kill_after_frames: Optional[int] = None,
        tear: bool = False,
        stall_seconds: float = 0.0,
        stall_before_frame: Optional[int] = None,
        duplicate_frames: bool = False,
        duplicate_statements: bool = False,
    ) -> None:
        self.kill_after_frames = kill_after_frames
        self.tear = tear
        self.stall_seconds = stall_seconds
        self.stall_before_frame = stall_before_frame
        self.duplicate_frames = duplicate_frames
        self.duplicate_statements = duplicate_statements


class ChaosProxy:
    """TCP proxy with scripted fault injection.

    ::

        proxy = ChaosProxy(net.host, net.port).start()
        proxy.arm(kill_after_frames=3, tear=True)
        client = connect_tcp(proxy.host, proxy.port)   # doomed
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.host = host
        self.port = port
        self.stats = {
            "connections": 0,
            "frames_down": 0,  # server → client
            "frames_up": 0,    # client → server
            "kills": 0,
            "torn": 0,
            "stalls": 0,
            "duplicated_frames": 0,
            "duplicated_statements": 0,
        }
        self._armed: Optional[_FaultPlan] = None
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: list[threading.Thread] = []
        self._sockets: list[socket.socket] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        self._closed = True
        if self._listener is not None:
            # shutdown before close: closing alone does not wake a
            # thread blocked in accept() on Linux
            _shutdown(self._listener)
        with self._lock:
            sockets = list(self._sockets)
        for sock in sockets:
            _shutdown(sock)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._threads):
            thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- fault arming --------------------------------------------------------

    def arm(
        self,
        kill_after_frames: Optional[int] = None,
        tear: bool = False,
        stall_seconds: float = 0.0,
        stall_before_frame: Optional[int] = None,
        duplicate_frames: bool = False,
        duplicate_statements: bool = False,
    ) -> None:
        """Arm faults for the next downstream connection (one-shot)."""
        self._armed = _FaultPlan(
            kill_after_frames=kill_after_frames,
            tear=tear,
            stall_seconds=stall_seconds,
            stall_before_frame=stall_before_frame,
            duplicate_frames=duplicate_frames,
            duplicate_statements=duplicate_statements,
        )

    # -- plumbing ------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed:
            try:
                downstream, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                upstream = socket.create_connection(self.upstream, timeout=10)
            except OSError:
                downstream.close()
                continue
            # a proxy that forwards frame by frame must not add Nagle's
            # wait for the peer's delayed ACK to either leg
            for leg in (downstream, upstream):
                leg.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            plan = self._armed or _FaultPlan()
            self._armed = None  # one-shot
            self.stats["connections"] += 1
            with self._lock:
                self._sockets.extend((downstream, upstream))
            for args in (
                (downstream, upstream, plan, "up"),
                (upstream, downstream, plan, "down"),
            ):
                thread = threading.Thread(
                    target=self._pipe, args=args, daemon=True
                )
                thread.start()
                self._threads.append(thread)

    def _pipe(
        self,
        src: socket.socket,
        dst: socket.socket,
        plan: _FaultPlan,
        direction: str,
    ) -> None:
        """Forward frames src → dst, applying the plan's faults."""
        forwarded = 0
        try:
            while True:
                frame = _read_raw_frame(src)
                if frame is None:
                    break
                if direction == "down":
                    if (
                        plan.stall_before_frame is not None
                        and forwarded == plan.stall_before_frame
                        and plan.stall_seconds > 0
                    ):
                        self.stats["stalls"] += 1
                        time.sleep(plan.stall_seconds)
                    if (
                        plan.kill_after_frames is not None
                        and forwarded >= plan.kill_after_frames
                    ):
                        if plan.tear:
                            # half a frame: the reader desyncs mid-frame
                            self.stats["torn"] += 1
                            dst.sendall(frame[: max(1, len(frame) // 2)])
                        self.stats["kills"] += 1
                        break
                    dst.sendall(frame)
                    forwarded += 1
                    self.stats["frames_down"] += 1
                    if plan.duplicate_frames and b'"fseq"' in frame:
                        # exact byte replay of a result-stream frame:
                        # the client must dedup it by fseq
                        dst.sendall(frame)
                        self.stats["duplicated_frames"] += 1
                else:
                    dst.sendall(frame)
                    forwarded += 1
                    self.stats["frames_up"] += 1
                    if plan.duplicate_statements and b'"statement"' in frame:
                        # replayed submission: the server must dedup the
                        # statement id, not buy the crowd work twice
                        dst.sendall(frame)
                        self.stats["duplicated_statements"] += 1
        except OSError:
            pass
        finally:
            _shutdown(src)
            _shutdown(dst)


def _read_raw_frame(sock: socket.socket) -> Optional[bytes]:
    """One length-prefixed frame as raw bytes; None on EOF/short read."""
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return prefix + payload


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover
        pass
