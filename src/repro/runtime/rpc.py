"""Socket RPC: a blocking client and a selectors-based batch server.

The serve loop is single-threaded on purpose. Each ``select()`` wake
drains *every* complete request frame currently readable across all
connections and hands the whole batch to the handler at once — that
batch seeds the group-commit window: the server host applies all
mutations and defers the acks to its committer thread, which folds
every batch queued during the previous ``fsync`` into one flush. One
blocking caller can never have more than one request in flight, so
batches only form when multiple worker processes are genuinely
concurrent; the measured speedup of the parallel benchmark is exactly
this effect.
"""

from __future__ import annotations

import select
import selectors
import socket
import time
from typing import Any, Callable, Iterable

from repro.errors import RemoteOpError
from repro.runtime.wire import (
    NOT_RESENT,
    FrameCorruptionError,
    FrameError,
    Request,
    Response,
    Row,
    StreamDecoder,
    corrupt_frame,
    encode_error,
    encode_frame,
    invoke,
)

RECV_CHUNK = 65536

# hard cap on a fault-injected frame delay; the serve loop is
# single-threaded, so a delay stalls every connection — bounding it
# keeps client timeouts (30s) and supervisor pings out of reach
MAX_FAULT_DELAY = 0.5


def _sendall(sock: socket.socket, payload: bytes) -> None:
    """``sendall`` for non-blocking sockets: wait for writability on
    ``BlockingIOError`` instead of raising."""
    view = memoryview(payload)
    while view:
        try:
            sent = sock.send(view)
        except BlockingIOError:
            select.select([], [sock], [], 1.0)
            continue
        view = view[sent:]


class RpcClient:
    """A blocking single-connection RPC client.

    One request in flight at a time; ``call`` returns the unwrapped
    response value or raises the round-tripped remote exception.

    A reply frame that fails to parse — CRC mismatch or framing desync —
    poisons the whole stream, so the connection is dropped either way.
    The op is then transparently re-issued once on a fresh connection —
    unless :data:`~repro.runtime.wire.NOT_RESENT` names it (the first
    send may have applied): that surfaces a typed
    :class:`FrameCorruptionError` for the journaled retry machinery
    above to absorb.
    """

    def __init__(self, host: str, port: int, *, timeout: float | None = 30.0):
        self._address = (host, port)
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self._decoder = StreamDecoder()
        self.calls = 0
        self.frame_corruptions = 0

    def connect(self) -> "RpcClient":
        if self._sock is None:
            sock = socket.create_connection(self._address, timeout=self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def call(self, method: str, *args: Any, target: Any = None) -> Any:
        return self.call_raw(Request(method, args, target)).unwrap()

    def call_raw(self, request: Request) -> Response:
        resend = request.method not in NOT_RESENT
        while True:
            self.send_request(request)
            try:
                return self.recv_response()
            except FrameCorruptionError:
                if not resend:
                    raise
                resend = False

    def send_request(self, request: Request) -> None:
        """Fire a request without waiting; pair with :meth:`recv_response`.

        The parent uses this to put one batch in flight per worker
        process before collecting any responses — the workers overlap
        while the parent waits. :meth:`call_raw` is the pair, blocking.
        """
        if self._sock is None:
            self.connect()
        assert self._sock is not None
        self.calls += 1
        try:
            self._sock.sendall(encode_frame(request))
        except (OSError, ConnectionError) as exc:
            self.close()
            raise RemoteOpError(
                f"rpc to {self._address[0]}:{self._address[1]} failed "
                f"sending {request.method!r}: {exc}"
            ) from exc

    def recv_response(self) -> Response:
        """Block for the response to the oldest un-answered request."""
        if self._sock is None:
            raise RemoteOpError("recv_response with no connection open")
        try:
            while True:
                frames = self._decoder.feed(self._recv())
                if frames:
                    break
        except FrameError as exc:
            # a damaged or desynced reply stream: nothing received on this
            # connection can be trusted anymore, so drop it (close() also
            # resets the decoder). Re-sending is the caller's decision
            self.frame_corruptions += 1
            self.close()
            raise FrameCorruptionError(
                f"rpc to {self._address[0]}:{self._address[1]} returned a "
                "corrupt frame while awaiting a response"
            ) from exc
        except (OSError, ConnectionError) as exc:
            self.close()
            raise RemoteOpError(
                f"rpc to {self._address[0]}:{self._address[1]} dropped "
                f"while awaiting a response: {exc}"
            ) from exc
        if len(frames) != 1:
            self.close()
            raise RemoteOpError(f"expected one response frame, got {len(frames)}")
        return frames[0]

    def _recv(self) -> bytes:
        assert self._sock is not None
        data = self._sock.recv(RECV_CHUNK)
        if not data:
            raise ConnectionError("server closed the connection")
        return data

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._decoder = StreamDecoder()

    def __enter__(self) -> "RpcClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()


class RpcServer:
    """Single-threaded framed RPC server with batched dispatch.

    ``handler(batch)`` receives the full list of ``(conn_id, Request)``
    pairs drained in one select wake and must return one ``Response``
    per entry, in order. Anything the handler raises is converted to a
    per-batch error response rather than killing the loop.

    A handler may instead return ``None`` to take ownership of replying
    — it must then deliver every response itself (possibly later, from
    another thread) via :meth:`send_payload`. The server host uses this
    to defer acks to its group-commit thread.
    """

    def __init__(
        self,
        handler: Callable[[list[tuple[int, Request]]], list[Response]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._handler = handler
        self._sel = selectors.DefaultSelector()
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self._decoders: dict[socket.socket, StreamDecoder] = {}
        self._conn_ids: dict[socket.socket, int] = {}
        self._socks: dict[int, socket.socket] = {}
        self._next_conn_id = 0
        self._running = False
        self.batches = 0
        self.requests = 0
        # chaos seam: when set, consulted once per decoded request frame
        # *before* dispatch. Returns None (pass), "reset" (close the
        # connection without processing — an inbound partition),
        # ("delay", seconds) (stall the loop, bounded),
        # "drop_response" (process the request but swallow its reply and
        # close the connection — an ack lost after apply), or
        # "corrupt_response" (process the request but flip a payload bit
        # in the outgoing reply frame — silent wire corruption the
        # client's CRC check must catch).
        self.fault_hook: Callable[[int, Request], Any] | None = None
        self.faults_injected: dict[str, int] = {}
        self._swallow: dict[int, int] = {}
        self._corrupt: dict[int, int] = {}

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def stop(self) -> None:
        """Ask the serve loop to exit after the current batch."""
        self._running = False

    def serve_forever(
        self,
        *,
        poll_interval: float = 0.5,
        on_exit: Callable[[], None] | None = None,
    ) -> None:
        """Run until :meth:`stop` is called (typically from the handler).

        ``on_exit`` runs after the loop stops but *before* connections
        close — the hook a deferred-reply handler needs to flush its
        final acks onto still-open sockets.
        """
        self._running = True
        try:
            while self._running:
                self._serve_once(timeout=poll_interval)
        finally:
            try:
                if on_exit is not None:
                    on_exit()
            finally:
                self.close()

    def _serve_once(self, *, timeout: float | None) -> None:
        events = self._sel.select(timeout)
        batch: list[tuple[socket.socket, Request]] = []
        for key, _ in events:
            sock = key.fileobj
            if key.data is None:
                self._accept()
                continue
            try:
                data = sock.recv(RECV_CHUNK)
            except (ConnectionError, OSError):
                data = b""
            if not data:
                self._drop(sock)
                continue
            try:
                frames = self._decoders[sock].feed(data)
            except Exception:
                self._drop(sock)
                continue
            for frame in frames:
                batch.append((sock, frame))
        if self.fault_hook is not None and batch:
            batch = self._apply_faults(batch)
        if not batch:
            return
        self.batches += 1
        self.requests += len(batch)
        tagged = [(self._conn_ids[sock], req) for sock, req in batch]
        try:
            responses = self._handler(tagged)
            if responses is None:
                return  # handler took ownership of replying
            if len(responses) != len(batch):
                raise RemoteOpError(
                    f"handler returned {len(responses)} responses "
                    f"for a batch of {len(batch)}"
                )
        except Exception as exc:
            responses = [encode_error(exc) for _ in batch]
        for (sock, _), response in zip(batch, responses):
            conn_id = self._conn_ids.get(sock)
            if conn_id is not None and self._consume_swallow(conn_id):
                self._drop(sock)
                continue
            payload = encode_frame(response)
            if conn_id is not None and self._consume_corrupt(conn_id):
                payload = corrupt_frame(payload)
            try:
                _sendall(sock, payload)
            except (ConnectionError, OSError):
                self._drop(sock)

    def _apply_faults(
        self, batch: list[tuple[socket.socket, Request]]
    ) -> list[tuple[socket.socket, Request]]:
        """Filter one drained batch through the armed fault hook."""
        kept: list[tuple[socket.socket, Request]] = []
        reset: set[socket.socket] = set()
        for sock, frame in batch:
            if sock in reset:
                continue  # later frames died with their connection
            try:
                action = self.fault_hook(self._conn_ids[sock], frame)
            except Exception:
                action = None  # a broken hook must not take the server down
            if action is None:
                kept.append((sock, frame))
                continue
            kind = action[0] if isinstance(action, tuple) else action
            self.faults_injected[kind] = self.faults_injected.get(kind, 0) + 1
            if kind == "reset":
                reset.add(sock)
                self._drop(sock)
            elif kind == "delay":
                time.sleep(min(float(action[1]), MAX_FAULT_DELAY))
                kept.append((sock, frame))
            elif kind == "drop_response":
                conn_id = self._conn_ids[sock]
                self._swallow[conn_id] = self._swallow.get(conn_id, 0) + 1
                kept.append((sock, frame))
            elif kind == "corrupt_response":
                conn_id = self._conn_ids[sock]
                self._corrupt[conn_id] = self._corrupt.get(conn_id, 0) + 1
                kept.append((sock, frame))
            else:
                kept.append((sock, frame))
        return kept

    def _consume_swallow(self, conn_id: int) -> bool:
        return self._consume_marker(self._swallow, conn_id)

    def _consume_corrupt(self, conn_id: int) -> bool:
        return self._consume_marker(self._corrupt, conn_id)

    @staticmethod
    def _consume_marker(markers: dict[int, int], conn_id: int) -> bool:
        count = markers.get(conn_id, 0)
        if count <= 0:
            return False
        if count == 1:
            markers.pop(conn_id, None)
        else:
            markers[conn_id] = count - 1
        return True

    def send_payload(self, conn_id: int, payload: bytes) -> None:
        """Deliver an already-encoded response frame to a connection.

        Safe to call from a thread other than the serve loop: it only
        reads the conn map (atomic under the GIL) and writes to the
        socket, which the loop never does for deferred-reply handlers.
        A vanished or broken connection is ignored — the serve loop
        observes the EOF and reaps it on its next wake.
        """
        sock = self._socks.get(conn_id)
        if sock is None:
            return
        if self._consume_swallow(conn_id):
            # an armed drop_response eats this ack; shutting the socket
            # down makes the client observe the loss immediately (EOF ->
            # reconnect-and-retry) instead of blocking out its timeout.
            # The serve loop reaps the connection on its next wake.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return
        if self._consume_corrupt(conn_id):
            payload = corrupt_frame(payload)
        try:
            _sendall(sock, payload)
        except (ConnectionError, OSError):
            pass

    def _accept(self) -> None:
        conn, _ = self._listener.accept()
        conn.setblocking(False)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoders[conn] = StreamDecoder()
        self._conn_ids[conn] = self._next_conn_id
        self._socks[self._next_conn_id] = conn
        self._next_conn_id += 1
        self._sel.register(conn, selectors.EVENT_READ, "conn")

    def _drop(self, sock: socket.socket) -> None:
        try:
            self._sel.unregister(sock)
        except (KeyError, ValueError):
            pass
        sock.close()
        self._decoders.pop(sock, None)
        conn_id = self._conn_ids.pop(sock, None)
        if conn_id is not None:
            self._socks.pop(conn_id, None)

    def close(self) -> None:
        for sock in list(self._decoders):
            self._drop(sock)
        try:
            self._sel.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._sel.close()


def dispatch_to_methods(
    receiver_for: Callable[[Any], Any],
    rows: "dict[str, Row]",
) -> Callable[[Iterable[tuple[int, Request]]], list[Response]]:
    """Build a batch handler that serves the names ``rows`` declares.

    ``receiver_for(target)`` resolves the addressed object, and
    :func:`~repro.runtime.wire.invoke` serves the request on it.
    Per-request exceptions become per-request error responses, so one
    failing op never poisons its batch-mates.
    """

    def handler(batch: Iterable[tuple[int, Request]]) -> list[Response]:
        responses = []
        for _, request in batch:
            try:
                __, value = invoke(rows, receiver_for(request.target), request)
                responses.append(Response(value=value))
            except Exception as exc:
                responses.append(encode_error(exc))
        return responses

    return handler
