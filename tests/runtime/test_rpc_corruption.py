"""RpcClient vs corrupt reply frames: reconnect, retry, typed errors.

Regression for the framing-desync bug: the client used to surface
``FrameError`` raw — with the decoder still desynchronized — so one
damaged reply poisoned every later call on the connection. Now the
connection drops (resetting the decoder), idempotent ops transparently
retry on a fresh connection, and mutating ops surface a typed
:class:`FrameCorruptionError` for the journaled retry path above.
"""

import threading

import pytest

from repro.errors import RemoteOpError
from repro.runtime.rpc import RpcClient, RpcServer, dispatch_to_methods
from repro.runtime.wire import CALL, LOGGED, FrameCorruptionError


class Receiver:
    """Counts invocations so tests can see server-side applies."""

    def __init__(self):
        self.calls = {}

    def _count(self, method):
        self.calls[method] = self.calls.get(method, 0) + 1

    def echo(self, value):
        self._count("echo")
        return value

    def mutate(self, key, value):
        self._count("mutate")
        return "applied"


@pytest.fixture
def served():
    receiver = Receiver()
    server = RpcServer(
        dispatch_to_methods(
            lambda target: receiver, {"echo": CALL, "mutate": LOGGED}
        )
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    client = RpcClient("127.0.0.1", server.port, timeout=5.0)
    try:
        yield server, client, receiver
    finally:
        client.close()
        server.stop()
        thread.join(timeout=5.0)


def arm_corruption(server, count, methods=("echo", "mutate")):
    armed = {"count": count}

    def hook(conn_id, request):
        if request.method in methods and armed["count"] > 0:
            armed["count"] -= 1
            return "corrupt_response"
        return None

    server.fault_hook = hook
    return armed


class TestIdempotentRetry:
    def test_corrupt_read_reply_is_transparently_retried(self, served):
        server, client, receiver = served
        assert client.call("echo", 41) == 41  # clean baseline
        arm_corruption(server, 1)
        assert client.call("echo", 42) == 42
        # the client detected the damage, reconnected, and re-asked
        assert client.frame_corruptions == 1
        assert receiver.calls["echo"] == 3
        assert server.faults_injected["corrupt_response"] == 1

    def test_connection_is_usable_after_recovery(self, served):
        server, client, receiver = served
        arm_corruption(server, 1)
        assert client.call("echo", 1) == 1
        server.fault_hook = None
        for value in range(5):
            assert client.call("echo", value) == value
        assert client.frame_corruptions == 1

    def test_persistent_corruption_surfaces_the_typed_error(self, served):
        server, client, receiver = served
        arm_corruption(server, 10)  # every attempt damaged
        with pytest.raises(FrameCorruptionError):
            client.call("echo", 7)
        # one transparent retry, then give up: two attempts, not ten
        assert client.frame_corruptions == 2
        assert receiver.calls["echo"] == 2


class TestMutatingOps:
    def test_corrupt_mutation_reply_is_not_resent_at_transport(self, served):
        server, client, receiver = served
        arm_corruption(server, 1)
        with pytest.raises(FrameCorruptionError):
            client.call("mutate", "k", "v")
        # the server applied the op exactly once: the transport must not
        # blind-resend a mutation whose first send may have applied
        assert receiver.calls["mutate"] == 1

    def test_corruption_error_is_a_remote_op_error(self, served):
        # the journaled retry machinery upstream (proxies._retrying)
        # catches RemoteOpError; the typed corruption error must be one
        assert issubclass(FrameCorruptionError, RemoteOpError)

    def test_client_reconnects_for_the_next_call(self, served):
        server, client, receiver = served
        arm_corruption(server, 1)
        with pytest.raises(FrameCorruptionError):
            client.call("mutate", "k", "v")
        assert not client.connected
        assert client.call("mutate", "k2", "v2") == "applied"
        assert receiver.calls["mutate"] == 2
