"""Hedge and timeout accounting of the live load client, without sockets.

The wire is replaced by an in-memory writer and the client's response and
reaper paths are driven directly, so the tests pin which wire won and when
an operation counts as timed out independently of real network timing.
"""

from repro.live.client import LiveLoadClient, _Operation


class _Writer:
    """A stand-in ``StreamWriter`` that keeps the frames it is given."""

    def __init__(self):
        self.frames = []

    def is_closing(self):
        return False

    def write(self, data):
        self.frames.append(data)


def _client(**kwargs):
    client = LiveLoadClient([("127.0.0.1", 0)] * 3, strategy="rand", **kwargs)
    client._writers = {sid: _Writer() for sid in range(3)}
    return client


def _read_op(client, now=0.0):
    op = _Operation(op_id=client._next_id, group=(0, 1, 2), kind="read", created_ms=now)
    client._next_id += 1
    client._ops[op.op_id] = op
    client.result.issued += 1
    return op


def _hedged_read(client, primary, hedge):
    """A read sent to ``primary`` at t=0 and hedged to ``hedge`` at t=50."""
    op = _read_op(client)
    client._send(op, primary, 0.0, primary=True)
    op.hedges_fired += 1
    client.result.hedges_fired += 1
    client._send(op, hedge, 50.0, primary=False)
    wire_of = {p.server_id: wid for wid, p in client._pending.items()}
    return op, wire_of


def _response(wire_id, server_id):
    return {
        "t": "res",
        "id": wire_id,
        "server_id": server_id,
        "queue_size": 1,
        "service_time_ms": 1.0,
        "rejected": False,
    }


class TestHedgeWinner:
    # Primary on server 2 and hedge on server 0: a set {2, 0} iterates 0
    # first, so "first element of the used set" names the hedge as primary.
    def test_primary_win_is_not_a_hedge_win(self):
        client = _client()
        op, wire_of = _hedged_read(client, primary=2, hedge=0)
        client._on_response(_response(wire_of[2], 2))
        assert client.result.completed == 1
        assert client.result.hedges_won == 0

    def test_hedge_win_is_counted(self):
        client = _client()
        op, wire_of = _hedged_read(client, primary=2, hedge=0)
        client._on_response(_response(wire_of[0], 0))
        assert client.result.completed == 1
        assert client.result.hedges_won == 1

    def test_late_copy_after_completion_is_ignored(self):
        client = _client()
        op, wire_of = _hedged_read(client, primary=1, hedge=2)
        client._on_response(_response(wire_of[2], 2))
        client._on_response(_response(wire_of[1], 1))
        assert client.result.completed == 1
        assert client.result.hedges_won == 1
        assert not client._pending and not client._ops


class TestReaper:
    def test_hedged_op_times_out_only_after_both_wires_expire(self):
        client = _client(request_timeout_ms=100.0)
        op, wire_of = _hedged_read(client, primary=2, hedge=0)
        client._reap(120.0)  # primary (deadline 100) expired, hedge (150) still out
        assert client.result.timeouts == 0
        assert list(client._pending) == [wire_of[0]]
        assert op.op_id in client._ops and not op.done
        client._reap(160.0)
        assert client.result.timeouts == 1
        assert op.done and not client._pending and not client._ops

    def test_response_on_the_surviving_wire_completes_the_op(self):
        client = _client(request_timeout_ms=100.0)
        op, wire_of = _hedged_read(client, primary=2, hedge=0)
        client._reap(120.0)
        client._on_response(_response(wire_of[0], 0))
        client._reap(1_000.0)
        assert client.result.completed == 1
        assert client.result.timeouts == 0

    def test_unhedged_op_times_out_with_its_only_wire(self):
        client = _client(request_timeout_ms=100.0)
        op = _read_op(client)
        client._send(op, 1, 0.0, primary=True)
        client._reap(99.0)
        assert client.result.timeouts == 0
        client._reap(100.0)
        assert client.result.timeouts == 1
        assert client.result.issued == client.result.completed + client.result.timeouts
