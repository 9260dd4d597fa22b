"""The one-tuple datagram path is the train path — and nothing else changed.

A one-tuple train goes through ``Network.send_batch`` like any other and
builds no ``Datagram``; its datagram, like every other, is counted, launched
and landed by ``Network._launch`` / ``Network._land``, which enter
``_datagram_lost`` only when it could draw; ``values.estimate_sizes`` sizes a
tuple's fields in one exact-type pass.  Each is checked against what it
replaced:

* the sizes against the ``isinstance`` chain ``values.estimate_size`` used to
  be, value by value;
* a send's delay against the topology (with and without jitter), with the
  conditioner's factor applied per send;
* the whole path against :class:`HelperChainNetwork`, a subclass that sends
  and delivers the way the transport did before — same loss-stream positions,
  same drop counters of every kind, same byte totals per category, same
  arrivals at the same instants, under uniform loss and under a
  Gilbert–Elliott burst installed in mid-run;
* the reliable layer's wire units on the same steps against a golden
  recorded from the transport before it shared them.
"""

import hashlib
import json
import os
import random

from hypothesis import given, settings, strategies as st

from repro.core import Tuple, values
from repro.net import (
    LatencyMatrixTopology,
    Network,
    TransitStubTopology,
    UniformTopology,
    PACKET_OVERHEAD_BYTES,
)
from repro.sim import EventLoop
from repro.sim.faults import GilbertElliott, LinkConditioner


# ------------------------------------------------------------------ estimate_size
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(1 << 160), 1 << 160),
    st.sampled_from([0, -1, 2**31 - 1, 2**31, 2**32 - 1, 2**32, -(2**31), -(2**32),
                     2**63, (1 << 160) - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="abcXYZ 09_-", max_size=12),
    st.text(max_size=8),  # non-ASCII: sized by its UTF-8 encoding
    st.binary(max_size=9),
)
fields_strategy = st.lists(
    st.one_of(atoms, st.lists(st.one_of(atoms, st.lists(atoms, max_size=3)), max_size=4)),
    max_size=7,
)


def reference_size(value):
    """A value's size as ``values.estimate_size`` once gave it, one
    ``isinstance`` test at a time: 1 tag byte + an XDR-like payload."""
    if value is None or isinstance(value, bool):
        return 1 + 1
    if isinstance(value, int):
        return 1 + max(4, (value.bit_length() + 7) // 8)
    if isinstance(value, float):
        return 1 + 8
    if isinstance(value, str):
        return 1 + 4 + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return 1 + 4 + len(value)
    assert isinstance(value, tuple)
    return 1 + 4 + sum(reference_size(v) for v in value)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(["s", "succ", "bestLookupDist"]), fields=fields_strategy)
def test_estimate_size_is_the_sum_of_the_value_sizes(name, fields):
    tup = Tuple(name, fields)
    assert [values.estimate_sizes((f,)) for f in tup.fields] == [reference_size(f) for f in tup.fields]
    assert tup.estimate_size() == 4 + len(name) + sum(reference_size(f) for f in tup.fields)
    assert values.estimate_sizes(tup.fields) == sum(reference_size(f) for f in tup.fields)


def test_a_subclass_is_sized_as_the_atom_it_extends():
    import enum
    from collections import namedtuple

    class Colour(enum.IntEnum):
        RED = 1 << 40

    pair = namedtuple("pair", "a b")(1, "é")
    assert values.estimate_sizes((Colour.RED,)) == reference_size(1 << 40) == 7
    assert values.estimate_sizes((pair,)) == reference_size((1, "é")) == 5 + 5 + 7


def test_estimate_size_of_the_atoms_a_tuple_is_made_of():
    sizes = {f: Tuple("t", [f]).estimate_size() - 5 for f in (1, True, 1.0, None, "é", "e", 1 << 40)}
    assert sizes == {1: 5, True: 2, 1.0: 9, None: 2, "é": 7, "e": 6, 1 << 40: 7}


# ------------------------------------------------------------------ latency
class Endpoint:
    def __init__(self, address, log, loop):
        self.address, self.log, self.loop, self.alive = address, log, loop, True

    def receive(self, tup):
        self.log.append((self.loop.now, self.address, tup))


def _topologies():
    matrix = [[0.0 if a == b else 0.001 * (3 * a + b + 1) for b in range(6)] for a in range(6)]
    return [
        TransitStubTopology(domains=3, seed=4),
        TransitStubTopology(domains=3, jitter_fraction=0.2, seed=4),
        LatencyMatrixTopology(matrix),
        UniformTopology(latency=0.01),
    ]


def test_a_send_is_delayed_by_the_topology_latency():
    for topology in _topologies():
        loop = EventLoop()
        net = Network(loop, topology)
        log = []
        for i in range(6):
            net.register(Endpoint(f"n{i}", log, loop))
        for _ in range(2):  # the same pair twice: the same delay twice
            net.send_batch("n0", "n4", [Tuple.make("x", 1)])
            net.send_batch("n4", "n0", [Tuple.make("x", 2)])
        loop.run()
        assert sorted(round(t, 12) for t, _, _ in log) == sorted(
            round(topology.latency(a, b), 12) for a, b in ((0, 4), (4, 0)) * 2
        )


def test_latency_factor_applies_to_every_send():
    loop = EventLoop()
    topology = TransitStubTopology(domains=2, seed=1)
    net = Network(loop, topology)
    log = []
    for i in range(2):
        net.register(Endpoint(f"n{i}", log, loop))
    base = topology.latency(0, 1)
    cond = LinkConditioner(seed=3)
    net.set_conditioner(cond)
    net.send_batch("n0", "n1", [Tuple.make("x", 0)])
    cond.push_latency_spike(4.0)
    net.send_batch("n0", "n1", [Tuple.make("x", 1)])
    net.send_batch("n0", "n1", [Tuple.make("x", 2), Tuple.make("x", 3)])
    cond.pop_latency_spike(4.0)
    net.send_batch("n0", "n1", [Tuple.make("x", 4)])
    loop.run()
    arrivals = {tup[0]: when for when, _, tup in log}
    assert arrivals == {0: base, 1: 4.0 * base, 2: 4.0 * base, 3: 4.0 * base, 4: base}


# ------------------------------------------------- the path against its helper chain
class HelperChainNetwork(Network):
    """A one-tuple train sent and delivered the way the transport once did:
    its own accounting, one helper call per step, its own scheduling; longer
    trains are ``Network.send_batch``'s."""

    def send_batch(self, src, dst, tuples):
        if len(tuples) != 1:
            return super().send_batch(src, dst, tuples)
        (tup,) = tuples
        if src not in self._indices:
            raise AssertionError("the scenario only sends from registered sources")
        src_loop = self._loops[src]
        now = src_loop.now
        self.messages_sent += 1
        size = tup.estimate_size() + PACKET_OVERHEAD_BYTES
        category = self.classifier(tup)
        stats = self.stats[src]
        stats.tx_messages += 1
        stats.tx_datagrams += 1
        stats.tx_bytes += size
        stats.tx_bytes_by_category[category] = stats.tx_bytes_by_category.get(category, 0) + size
        for hook in self._send_hooks:
            hook(src, dst, tup, now)
        if dst not in self._indices:
            self.messages_dropped += 1
            return 0
        cond = self.conditioner
        if cond is not None and not cond.reachable(src, dst):
            cond.unreachable_drops += 1
            self.messages_dropped += 1
            return 0
        if self._datagram_lost(src, dst):
            self.messages_dropped += 1
            return 0
        delay = self.topology.latency(self._indices[src], self._indices[dst])
        if cond is not None:
            delay *= cond.latency_factor
        self._schedule_delivery(
            src, src_loop, dst, now, delay, lambda: self._deliver(dst, tup, size, category)
        )
        return 1

    def _schedule_delivery(self, src, src_loop, dst, now, delay, callback):
        seq = self._tx_seq.get(src, 0)
        self._tx_seq[src] = seq + 1
        priority = (now, self._indices[src], seq)
        dst_loop = self._loops[dst]
        if dst_loop is src_loop:
            dst_loop.deliver_at(now + delay, callback, priority)
        else:
            dst_loop.post_at(now + delay, callback, priority)

    def _deliver(self, dst, tup, size, category):
        node = self._nodes.get(dst)
        if node is None or not node.alive:
            self.dead_endpoint_drops += 1
            self.messages_dropped += 1
            return
        stats = self.stats[dst]
        stats.rx_messages += 1
        stats.rx_datagrams += 1
        stats.rx_bytes += size
        stats.rx_bytes_by_category[category] = stats.rx_bytes_by_category.get(category, 0) + size
        node.receive(tup)


ADDRESSES = [f"n{i}" for i in range(5)]


def _classify(tup):
    return "lookup" if tup.name == "lookup" else "maintenance"


def _play(network_class, script, loss_rate, jitter, reliable=False):
    """Run *script* on a fresh network of *network_class*; everything observable."""
    loop = EventLoop()
    net = network_class(
        loop, TransitStubTopology(domains=2, jitter_fraction=jitter, seed=9),
        loss_rate=loss_rate, seed=11, classifier=_classify, reliable=reliable,
    )
    log, hooked = [], []
    nodes = {}
    for address in ADDRESSES:
        nodes[address] = Endpoint(address, log, loop)
        net.register(nodes[address])
    net.add_send_hook(lambda src, dst, tup, now: hooked.append((src, dst, tup, now)))
    cond = LinkConditioner(seed=5)
    returned = []
    for step in script:
        kind = step[0]
        if kind == "send":
            _, src, dst, name, payload = step
            returned.append(net.send_batch(src, dst, [Tuple(name, (dst, payload))]) == 1)
        elif kind == "train":
            _, src, dst, count = step
            returned.append(net.send_batch(src, dst, [Tuple("succ", (dst, i)) for i in range(count)]))
        elif kind == "blobs":  # a train of several datagrams
            _, src, dst, count = step
            returned.append(net.send_batch(src, dst, [Tuple("blob", (dst, i, "x" * 600))
                                                      for i in range(count)]))
        elif kind == "run":
            loop.run_for(step[1])
        elif kind == "burst":  # a Gilbert–Elliott burst appears in mid-run
            net.set_conditioner(cond)
            cond.add_burst_loss(GilbertElliott(p_enter_bad=0.3, p_exit_bad=0.3, loss_bad=0.9),
                                src_set=step[1])
        elif kind == "partition":
            net.set_conditioner(cond)
            cond.set_partition([step[1]])
        elif kind == "heal":
            cond.heal_partition()
        elif kind == "spike":
            net.set_conditioner(cond)
            cond.push_latency_spike(step[1])
        elif kind in ("die", "down"):  # the endpoint's own flag: the network is not told
            nodes[step[1]].alive = False
        elif kind == "peer_down":  # a crash-stop the reliable layer is told of
            nodes[step[1]].alive = False
            net.endpoint_down(step[1])
        elif kind == "peer_up":
            nodes[step[1]].alive = True
            net.endpoint_up(step[1])
    if reliable:
        loop.run_for(120.0)  # a suspected link's probes re-arm for ever
    else:
        loop.run()
    layer = net.reliable_layer
    return {
        "returned": returned,
        "arrivals": log,
        "hooked": hooked,
        "loss_streams": {src: rng.getstate() for src, rng in sorted(net._loss_rngs.items())},
        "burst_chains": {
            (region.region_id, link): (chain.rng.getstate(), chain.bad)
            for region in cond._regions for link, chain in sorted(region._chains.items())
        },
        "counters": (net.messages_sent, net.datagrams_sent, net.messages_dropped,
                     net.dead_endpoint_drops, cond.unreachable_drops, cond.burst_drops),
        "reliable_counters": (net.retransmits, net.acks_sent, net.dupes_dropped,
                              net.suppressed_sends),
        "stats": {address: vars(stats).copy() for address, stats in sorted(net.stats.items())},
        "tx_seq": dict(net._tx_seq),
        "events": loop.processed,
        "layer": layer and {"inflight": layer.inflight_count(), "rto": layer.rto_values(),
                            "suspected": layer.suspected_links()},
    }


senders = st.sampled_from(ADDRESSES)
receivers = st.sampled_from(ADDRESSES + ["nowhere"])
script_steps = st.one_of(
    st.tuples(st.just("send"), senders, receivers, st.sampled_from(["succ", "lookup", "é"]),
              st.sampled_from([0, True, 2.5, "payload", (1 << 159) + 1, None])),
    st.tuples(st.just("send"), senders, receivers, st.just("succ"), st.integers(0, 9)),
    st.tuples(st.just("train"), senders, receivers, st.integers(0, 3)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.003, 0.2])),
    st.tuples(st.just("burst"), st.sampled_from([None, ("n0", "n1")])),
    st.tuples(st.just("partition"), st.sampled_from([("n0", "n1"), ("n2",)])),
    st.tuples(st.just("heal")),
    st.tuples(st.just("spike"), st.sampled_from([1.0, 2.5])),
    st.tuples(st.just("die"), senders),
    st.tuples(st.just("down"), st.sampled_from(ADDRESSES[2:])),
)


@settings(max_examples=250, deadline=None)
@given(
    script=st.lists(script_steps, max_size=30),
    loss_rate=st.sampled_from([0.0, 0.3]),
    jitter=st.sampled_from([0.0, 0.1]),
)
def test_send_is_the_helper_chain(script, loss_rate, jitter):
    assert _play(Network, script, loss_rate, jitter) == _play(HelperChainNetwork, script, loss_rate, jitter)


def test_a_long_lossy_run_with_a_burst_installed_half_way():
    """The same comparison on one long seeded script: hundreds of draws per
    source stream, a burst region installed in mid-run, endpoints dying with
    datagrams in flight."""
    rng = random.Random(2024)
    script = []
    for round_no in range(400):
        src, dst = rng.choice(ADDRESSES), rng.choice(ADDRESSES + ["nowhere"])
        script.append(("send", src, dst, rng.choice(["succ", "lookup"]), rng.randrange(1 << 40)))
        if round_no % 7 == 0:
            script.append(("train", src, dst, rng.randrange(4)))
        if round_no % 5 == 0:
            script.append(("run", rng.choice([0.0, 0.001, 0.05])))
        if round_no == 200:
            script.append(("burst", None))
        if round_no == 300:
            script += [("die", "n3"), ("down", "n4")]
    new, old = _play(Network, script, 0.2, 0.1), _play(HelperChainNetwork, script, 0.2, 0.1)
    assert new == old
    sent, datagrams, dropped, dead, _, burst = new["counters"]
    assert dropped > 50 and dead > 0 and burst > 0 and len(new["arrivals"]) > 100
    assert len(new["loss_streams"]) == len(ADDRESSES)
    by_category = [s["tx_bytes_by_category"] for s in new["stats"].values()]
    assert all(set(c) <= {"lookup", "maintenance"} for c in by_category) and any(
        "lookup" in c for c in by_category
    )


# ------------------------------------------------------------ the reliable wire, pinned
RELIABLE_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "wire", "reliable_play.json")


def _reliable_script():
    """One seeded script for ``reliable=True``: sends, trains of one and of
    several datagrams, runs, a burst, a partition and its heal, a latency
    spike, an endpoint dying unannounced, one going down, and a crash-stop
    with restart the layer is told of.  Time advances often enough that no
    link ever holds 64 datagrams beyond a gap (the reorder window)."""
    rng = random.Random(25)
    events = {
        30: [("burst", None)],
        60: [("partition", ("n0", "n1"))],
        80: [("spike", 2.5)],
        90: [("heal",)],
        110: [("die", "n3")],
        130: [("down", "n4")],
        150: [("peer_down", "n2")],
        175: [("run", 3.0), ("peer_up", "n2")],
    }
    script = []
    for round_no in range(220):
        src, dst = rng.choice(ADDRESSES), rng.choice(ADDRESSES + ["nowhere"])
        script.append(("send", src, dst, rng.choice(["succ", "lookup"]), rng.randrange(1 << 40)))
        if round_no % 9 == 0:
            script.append(("train", src, dst, rng.randrange(2, 5)))
        if round_no % 23 == 0:
            script.append(("blobs", src, dst, rng.randrange(3, 7)))
        if round_no % 3 == 0:
            script.append(("run", rng.choice([0.0, 0.05, 0.3, 0.8])))
        script += events.get(round_no, [])
    return script


def _as_json(played):
    """*played* as stable text: events one per line, RNG states by digest."""
    def digest(state):
        return hashlib.sha256(repr(state).encode()).hexdigest()[:16]

    def event(*parts, tup):
        return " ".join(map(repr, parts + ((tup.name, tup.fields),)))

    out = dict(played)
    out["arrivals"] = [event(when, address, tup=tup) for when, address, tup in played["arrivals"]]
    out["hooked"] = [event(src, dst, now, tup=tup) for src, dst, tup, now in played["hooked"]]
    out["loss_streams"] = {src: digest(state) for src, state in played["loss_streams"].items()}
    out["burst_chains"] = {
        f"{region}:{src}>{dst}": [digest(state), bad]
        for (region, (src, dst)), (state, bad) in played["burst_chains"].items()
    }
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_the_reliable_wire_path_is_pinned(request):
    """Every wire unit of the reliable layer — first sends, retransmissions,
    pure acks, probes — against a run recorded before they shared the
    best-effort path's launch and landing steps: arrivals, hooks, loss-stream
    and burst-chain positions, every counter, per-node stats, the merge-key
    sequence numbers, events processed and the layer's own link state.
    Regenerate with ``pytest tests/test_one_tuple_path.py --update-golden``."""
    played = _play(Network, _reliable_script(), 0.2, 0.1, reliable=True)
    text = _as_json(played)
    if request.config.getoption("--update-golden"):
        os.makedirs(os.path.dirname(RELIABLE_GOLDEN), exist_ok=True)
        with open(RELIABLE_GOLDEN, "w") as handle:
            handle.write(text)
    with open(RELIABLE_GOLDEN) as handle:
        assert text == handle.read()
    retransmits, acks, dupes, suppressed = played["reliable_counters"]
    assert retransmits and acks and dupes and suppressed
    assert played["counters"][3] and played["counters"][4] and played["counters"][5]
