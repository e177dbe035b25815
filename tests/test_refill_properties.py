"""Property test: the C refill kernel equals the numpy reference under churn.

``FlowNetwork`` has one fast refill (the C kernel in :mod:`repro.accel`,
reading a link→flows membership mirrored into C on every attach/detach)
and one reference (``_refill_reference``).  The mirror's swap-remove
bookkeeping is the kernel's only correctness dependency, so this test
drives random sequences of flow starts (some rate-capped), cancels,
re-routes, capacity rescaling, link failures/heals and clock advances
(which drain flows through the fused C tick), and after every step holds
the two refills to bit-identical rates.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.cluster.network import FlowNetwork
from repro.cluster.topologies import clos_topology
from repro.sim import Simulator
from repro.units import MB, Gbps

pytestmark = pytest.mark.skipif(
    accel.refill_kernel() is None, reason="C refill kernel unavailable"
)

TOPO = clos_topology(4, link=10 * Gbps, oversubscription=2.0, routing="ecmp")
HOSTS = TOPO.hosts
LINKS = sorted(TOPO.links())

idx = st.integers(0, 10**6)
host = st.integers(0, len(HOSTS) - 1)
start = st.tuples(
    st.just("start"), host, host,
    st.sampled_from([1, 8, 64, 256]),
    st.sampled_from([math.inf, math.inf, 50 * MB, 200 * MB, 1 * Gbps]),
)
ops = st.one_of(
    start, start, start,  # enough live flows to share links
    st.tuples(st.just("cancel"), idx),
    st.tuples(st.just("reroute"), idx, idx),
    st.tuples(st.just("factor"), idx, st.sampled_from([0.25, 0.5, 1.0, 3.0])),
    st.tuples(st.just("down"), idx),
    st.tuples(st.just("up"), idx),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.01, 0.1, 1.0])),
)


def apply(net: FlowNetwork, live: list, op: tuple) -> None:
    kind = op[0]
    if kind == "start":
        _, a, b, size_mb, cap = op
        if a != b:
            live.append(
                net.start_flow(HOSTS[a], HOSTS[b], size_mb * MB, max_rate=cap)
            )
    elif kind == "cancel" and live:
        net.cancel_flow(live[op[1] % len(live)])
    elif kind == "reroute" and live:
        flow = live[op[1] % len(live)]
        paths = TOPO.equal_cost_paths(flow.src, flow.dst)
        if paths:
            route = paths[op[2] % len(paths)]
            net.reroute_flow(flow, net.topology.link_ids(route))
    elif kind == "factor":
        net.set_capacity_factor(LINKS[op[1] % len(LINKS)], op[2])
    elif kind == "down":
        net.set_link_down(LINKS[op[1] % len(LINKS)])
    elif kind == "up":
        net.set_link_up(LINKS[op[1] % len(LINKS)])
    elif kind == "advance":
        net.sim.run(until=net.sim.now + op[1])
    live[:] = [f for f in live if not (f.done or f.cancelled)]


@given(steps=st.lists(ops, min_size=15, max_size=60))
@settings(max_examples=100, deadline=None)
def test_kernel_refill_equals_reference_under_churn(steps):
    net = FlowNetwork(Simulator(), TOPO, local_bandwidth=400 * MB)
    assert net._kern is not None
    live: list = []
    for op in steps:
        apply(net, live, op)
        n = net.active_flows
        assert n == len(live)
        net._refill()
        kernel = net._rates[:n].copy()
        net._rates[:n] = np.nan  # the reference must overwrite every slot
        net._refill_reference()
        assert kernel.tobytes() == net._rates[:n].tobytes(), op
