"""Unit tests for the network model."""

import pytest

from repro.net import Network, NetworkParams
from repro.sim import Interrupt, Simulator


def test_transfer_time_is_overhead_latency_wire():
    sim = Simulator()
    params = NetworkParams(bandwidth_bytes_s=1e8, latency_s=1e-4, per_message_overhead_s=1e-5)
    net = Network(sim, 2, params)

    def proc():
        yield from net.transfer(0, 1, 1_000_000)

    sim.run_until_event(sim.process(proc()))
    assert sim.now == pytest.approx(1e-5 + 1e-4 + 0.01)


def test_loopback_costs_only_overhead():
    sim = Simulator()
    params = NetworkParams(per_message_overhead_s=5e-6)
    net = Network(sim, 2, params)

    def proc():
        yield from net.transfer(0, 0, 10**9)

    sim.run_until_event(sim.process(proc()))
    assert sim.now == pytest.approx(5e-6)


def test_fan_in_serialises_at_receiver():
    """N senders to one receiver take ~N x wire time, not 1 x."""
    sim = Simulator()
    params = NetworkParams(bandwidth_bytes_s=1e8, latency_s=0.0, per_message_overhead_s=0.0)
    net = Network(sim, 5, params)
    size = 10_000_000  # 0.1 s of wire each

    def sender(i):
        yield from net.transfer(i, 4, size)

    procs = [sim.process(sender(i)) for i in range(4)]
    for p in procs:
        sim.run_until_event(p)
    assert sim.now == pytest.approx(0.4, rel=0.01)


def test_distinct_receivers_proceed_in_parallel():
    sim = Simulator()
    params = NetworkParams(bandwidth_bytes_s=1e8, latency_s=0.0, per_message_overhead_s=0.0)
    net = Network(sim, 4, params)
    size = 10_000_000

    def sender(src, dst):
        yield from net.transfer(src, dst, size)

    procs = [sim.process(sender(0, 2)), sim.process(sender(1, 3))]
    for p in procs:
        sim.run_until_event(p)
    assert sim.now == pytest.approx(0.1, rel=0.01)


def test_sender_tx_serialises_own_messages():
    sim = Simulator()
    params = NetworkParams(bandwidth_bytes_s=1e8, latency_s=0.0, per_message_overhead_s=0.0)
    net = Network(sim, 3, params)
    size = 10_000_000

    def sender():
        a = sim.process(net_iter(0, 1))
        b = sim.process(net_iter(0, 2))
        yield a
        yield b

    def net_iter(src, dst):
        yield from net.transfer(src, dst, size)

    sim.run_until_event(sim.process(sender()))
    assert sim.now == pytest.approx(0.2, rel=0.01)


def _timed_sends(sim, net, sends):
    """Start one process per ``(src, dst, nbytes)``; return a dict that
    maps each send's index to its completion time once it lands."""
    done = {}

    def send(i, src, dst, nbytes):
        yield from net.transfer(src, dst, nbytes)
        done[i] = sim.now

    for i, (src, dst, nbytes) in enumerate(sends):
        sim.process(send(i, src, dst, nbytes))
    return done


def test_fan_in_holds_receiver_through_latency():
    """N senders into one receiver finish at k * (overhead + latency +
    n/bw), k = 1..N: the receiver is held for the latency too."""
    sim = Simulator()
    params = NetworkParams(bandwidth_bytes_s=1e8, latency_s=1e-3, per_message_overhead_s=1e-5)
    net = Network(sim, 5, params)
    done = _timed_sends(sim, net, [(i, 4, 1_000_000) for i in range(4)])
    sim.run()
    unit = 1e-5 + 1e-3 + 0.01
    assert [done[i] for i in range(4)] == pytest.approx([k * unit for k in (1, 2, 3, 4)])


def test_sender_waiting_on_busy_receiver_keeps_its_tx():
    """Node 0's first message waits for node 2's RX (busy with node 1's
    0.1 s message) while holding node 0's TX, so its second message, to
    idle node 3, cannot start until the first has landed."""
    sim = Simulator()
    params = NetworkParams(bandwidth_bytes_s=1e8, latency_s=0.0, per_message_overhead_s=0.0)
    net = Network(sim, 4, params)
    done = _timed_sends(
        sim, net, [(1, 2, 10_000_000), (0, 2, 1_000_000), (0, 3, 1_000_000)]
    )
    sim.run()
    assert done[0] == pytest.approx(0.1)
    assert done[1] == pytest.approx(0.11)
    assert done[2] == pytest.approx(0.12)


def test_interrupted_transfer_releases_its_nics():
    """A transfer interrupted while it waits for the receiver's RX (a
    client request timeout) gives back the sender's TX and cancels its
    queued RX request, so both NICs stay usable."""
    sim = Simulator()
    params = NetworkParams(bandwidth_bytes_s=1e8, latency_s=0.0, per_message_overhead_s=0.0)
    net = Network(sim, 4, params)
    _timed_sends(sim, net, [(1, 2, 10_000_000)])

    def doomed():
        try:
            yield from net.transfer(0, 2, 1024)
        except Interrupt:
            pass

    victim = sim.process(doomed())

    def timeout_then_send():
        yield sim.timeout(0.01)
        victim.interrupt("request-timeout")
        yield sim.timeout(0.01)
        assert net.nics[0].tx.users == []
        assert len(net.nics[2].rx.users) == 1  # node 1's message only
        later.append(_timed_sends(sim, net, [(3, 2, 1024), (0, 1, 1024)]))

    later = []
    sim.process(timeout_then_send())
    sim.run()
    assert later[0] == pytest.approx({0: 0.1 + 1024 / 1e8, 1: 0.02 + 1024 / 1e8})
    for nic in net.nics:
        assert nic.tx.users == [] and nic.rx.users == []
        assert not nic.tx.queue and not nic.rx.queue


def test_byte_counters():
    sim = Simulator()
    net = Network(sim, 2)

    def proc():
        yield from net.transfer(0, 1, 12345)

    sim.run_until_event(sim.process(proc()))
    assert net.nics[0].bytes_sent == 12345
    assert net.nics[1].bytes_received == 12345
    assert net.messages_delivered == 1


def test_negative_bytes_rejected():
    sim = Simulator()
    net = Network(sim, 2)
    with pytest.raises(ValueError):
        list(net.transfer(0, 1, -1))


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        NetworkParams(bandwidth_bytes_s=0)
    with pytest.raises(ValueError):
        NetworkParams(latency_s=-1)
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, 0)
