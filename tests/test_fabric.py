"""Tests for the mesh topology and the message fabric timing model."""

import pytest

from repro.config import SystemConfig
from repro.engine.simulator import Simulator
from repro.network.fabric import Fabric
from repro.network.messages import DATA_BEARING, MsgType
from repro.network.topology import Mesh


def make_fabric(n=16):
    sim = Simulator()
    return Fabric(SystemConfig(n_procs=n), sim), sim


class TestMesh:
    def test_dims_cover_nodes(self):
        m = Mesh(SystemConfig(n_procs=16))
        assert m.width * m.height == 16

    def test_coords_roundtrip(self):
        m = Mesh(SystemConfig(n_procs=16))
        for node in range(16):
            x, y = m.coords(node)
            assert m.node_at(x, y) == node

    def test_hop_counts_match_manhattan(self):
        m = Mesh(SystemConfig(n_procs=16))
        for a in range(16):
            for b in range(16):
                ax, ay = m.coords(a)
                bx, by = m.coords(b)
                assert m.hops(a, b) == abs(ax - bx) + abs(ay - by)

    @pytest.mark.parametrize("n", [12, 7, 257])  # 257: 1x257, > 255 hops
    def test_hop_table_matches_manhattan_on_any_shape(self, n):
        m = Mesh(SystemConfig(n_procs=n))
        for a in range(n):
            ax, ay = m.coords(a)
            for b in range(n):
                bx, by = m.coords(b)
                assert m.hops(a, b) == abs(ax - bx) + abs(ay - by)

    def test_hop_table_shared_per_shape_and_immutable(self):
        a, b = Mesh(SystemConfig(n_procs=64)), Mesh(SystemConfig(n_procs=64))
        assert a.hop_table is b.hop_table
        assert isinstance(a.hop_table, bytes)
        assert isinstance(Mesh(SystemConfig(n_procs=257)).hop_table, tuple)
        assert Mesh(SystemConfig(n_procs=16)).hop_table is not a.hop_table

    def test_route_endpoints_and_length(self):
        m = Mesh(SystemConfig(n_procs=64))
        path = list(m.route(0, 63))
        assert path[0] == 0 and path[-1] == 63
        assert len(path) == m.hops(0, 63) + 1

    def test_route_is_dimension_order(self):
        m = Mesh(SystemConfig(n_procs=16))
        path = list(m.route(0, 15))
        # X varies first, then Y.
        ys = [m.coords(n)[1] for n in path]
        assert ys == sorted(ys)

    def test_average_distance(self):
        m = Mesh(SystemConfig(n_procs=4))  # 2x2
        # distances: each node has two at 1 hop and one at 2 hops.
        assert m.average_distance() == pytest.approx((2 * 1 + 2) / 3)

    def test_single_node_mesh(self):
        m = Mesh(SystemConfig(n_procs=1))
        assert m.average_distance() == 0.0
        assert m.hops(0, 0) == 0


class TestFabricTiming:
    def test_control_message_latency(self):
        f, sim = make_fabric(16)
        got = []
        f.send(0, 3, MsgType.ACK, 0, lambda t: got.append(t))
        sim.run()
        # 3 hops * (2+1) cycles, no serialization term.
        assert got == [9]

    def test_data_message_latency(self):
        f, sim = make_fabric(16)
        got = []
        f.send(0, 3, MsgType.DATA_REPLY, 0, lambda t: got.append(t))
        sim.run()
        # 3 hops * 3 + 128/2 serialization.
        assert got == [9 + 64]

    def test_local_delivery_is_free(self):
        f, sim = make_fabric(16)
        got = []
        f.send(5, 5, MsgType.DATA_REPLY, 42, lambda t: got.append(t))
        sim.run()
        assert got == [42]

    def test_control_and_data_use_separate_channels(self):
        f, sim = make_fabric(16)
        got = {}
        # A data message saturates the data channel...
        f.send(0, 3, MsgType.DATA_REPLY, 0, lambda t: got.setdefault("data", t))
        # ...but a control message sent right after is not delayed by it.
        f.send(0, 3, MsgType.ACK, 0, lambda t: got.setdefault("ctl", t))
        sim.run()
        assert got["ctl"] == 9

    def test_same_channel_contention_serializes(self):
        f, sim = make_fabric(16)
        got = []
        f.send(0, 3, MsgType.DATA_REPLY, 0, lambda t: got.append(("a", t)))
        f.send(0, 3, MsgType.DATA_REPLY, 0, lambda t: got.append(("b", t)))
        sim.run()
        (_, ta), (_, tb) = sorted(got, key=lambda x: x[1])
        # Second transfer starts after the first's 64-cycle occupancy.
        assert tb - ta == 64

    def test_size_override(self):
        f, sim = make_fabric(16)
        got = []
        f.send(0, 3, MsgType.WRITE_THROUGH, 0, lambda t: got.append(t), size=16)
        sim.run()
        # 3 hops * 3 + 16/2 serialization.
        assert got == [9 + 8]

    def test_fifo_between_same_pair_same_kind(self):
        f, sim = make_fabric(16)
        order = []
        for i in range(5):
            f.send(0, 7, MsgType.ACK, 0, lambda t, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_traffic_accounting(self):
        f, sim = make_fabric(16)
        f.send(0, 3, MsgType.DATA_REPLY, 0, lambda t: None)
        f.send(0, 1, MsgType.ACK, 0, lambda t: None)
        sim.run()
        assert f.stats.total_messages == 2
        assert f.stats.bytes[MsgType.DATA_REPLY] == 128
        assert f.stats.bytes[MsgType.ACK] == 0
        assert f.stats.total_hops == 4

    def test_handler_args_passed(self):
        f, sim = make_fabric(4)
        got = []
        f.send(0, 1, MsgType.ACK, 0, lambda t, a, b: got.append((a, b)), "x", 7)
        sim.run()
        assert got == [("x", 7)]


class TestMessageTypes:
    def test_data_bearing_set(self):
        assert MsgType.DATA_REPLY in DATA_BEARING
        assert MsgType.OWNER_DATA in DATA_BEARING
        assert MsgType.WRITEBACK in DATA_BEARING
        assert MsgType.ACK not in DATA_BEARING
        assert MsgType.WRITE_NOTICE not in DATA_BEARING

    def test_payload_size(self):
        f, _ = make_fabric(4)
        assert f.payload_size(MsgType.DATA_REPLY) == 128
        assert f.payload_size(MsgType.READ_REQ) == 0
