"""Flow-level network simulation with max-min fair bandwidth sharing.

The paper's scheduling quality hinges on *transfer latency*: a task placed
far from its data (or behind a congested link) straggles.  We therefore model
the cluster network at flow granularity:

* a :class:`Flow` is a bulk transfer of ``size`` bytes from ``src`` to
  ``dst`` along the topology route;
* all concurrent flows share link capacities **max-min fairly** — rates are
  recomputed by progressive filling every time a flow starts or finishes;
* each flow may carry a ``max_rate`` cap.  The MapReduce engine uses caps to
  model *pipelined compute*: a map task that can only digest input at its
  compute rate caps its input flow accordingly, so ``d_read`` (the progress
  the scheduler sees in heartbeats) tracks processing, exactly like Hadoop's
  record-at-a-time reader.
* node-local transfers (``src == dst``) stream from local disk at the node's
  disk bandwidth and never touch the fabric.

The network also exposes the live *path rate* estimate used by the paper's
network-condition-aware cost variant (Section II-B-3): the rate a new flow
would receive on a path, approximated per link as
``capacity / (flows_on_link + 1)``.

Performance design (shaped by profiling — see the optimisation guide's
"measure first" rule):

* **One pending simulator event** for the whole fabric (the earliest
  predicted completion, or a zero-delay "dirty" tick after an arrival or
  departure) instead of one per flow.  Under max-min sharing nearly every
  rate changes on every membership change, so per-flow completion events
  get cancelled and re-pushed constantly and the event heap drowns in
  tombstones.
* **Slot-indexed numpy state**: remaining bytes, current rate, rate cap and
  route (as dense link ids) of every active flow live in parallel arrays, so
  settling, progressive filling, and next-completion prediction are all
  vectorised; detaching swap-removes a slot in O(route length).

Correctness invariants (exercised by the property tests):

* no link is ever oversubscribed: ``sum(rates of flows crossing l) <=
  capacity(l)`` (up to float tolerance);
* the allocation is max-min fair: a flow's rate can only be increased by
  decreasing the rate of a flow that is no faster;
* bytes are conserved: integrating each flow's rate over time delivers
  exactly ``size`` bytes at completion.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Dict, List, Optional, Set

import networkx as nx
import numpy as np

from repro import accel as _accel
from repro.cache import caching_disabled
from repro.cluster.topology import LinkKey, Topology, _canon
from repro.obs import profile as _obs_profile
from repro.sim import Event, Simulator
from repro.units import MB

__all__ = ["Flow", "FlowNetwork"]

#: Declarations for caches that are maintained *incrementally* rather than
#: recomputed on a version key: writes to these structures are only legal
#: inside the listed maintainer methods (plus ``__init__``); ``repro check``
#: flags any other write site.  The runtime A/B reference for all of them is
#: the ``REPRO_NO_CACHE=1`` escape hatch (``_refill_reference``).
CACHE_DEPS = {
    "FlowNetwork._refill": {
        "inputs": (
            "FlowNetwork._routes",
            "FlowNetwork._caps",
            "FlowNetwork._finite_caps",
        ),
        "reference": "_refill_reference",
        "maintainers": ("_attach", "_detach", "start_flow"),
    },
}

_EPS_BYTES = 1e-3  # byte tolerance when deciding a flow has drained
_NO_SLOT = -1


class Flow:
    """One bulk data transfer.  Create via :meth:`FlowNetwork.start_flow`.

    While a fabric flow is in flight its ``remaining``/``rate`` live in the
    network's slot arrays; the properties below dispatch there.  Local-disk
    flows (``src == dst``) and finished flows carry their own values.
    """

    __slots__ = (
        "fid", "src", "dst", "size", "on_complete", "route", "route_ids",
        "max_rate", "start_time", "end_time", "cancelled", "_completion",
        "_net", "_slot", "_remaining", "_rate", "_last_update",
    )

    def __init__(
        self,
        fid: int,
        src: str,
        dst: str,
        size: float,
        on_complete: Optional[Callable[["Flow"], None]],
        route: List[LinkKey],
        max_rate: float,
        start_time: float,
        net: "FlowNetwork",
    ) -> None:
        self.fid = fid
        self.src = src
        self.dst = dst
        self.size = size
        self.on_complete = on_complete
        self.route = route
        self.route_ids: Optional[np.ndarray] = None
        self.max_rate = max_rate
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.cancelled = False
        self._completion: Optional[Event] = None
        self._net = net
        self._slot = _NO_SLOT
        self._remaining = size
        self._rate = 0.0
        self._last_update = start_time

    # -- state views ------------------------------------------------------
    @property
    def remaining(self) -> float:
        """Bytes left as of the network's last settle point."""
        if self._slot != _NO_SLOT:
            return float(self._net._rem[self._slot])
        return self._remaining

    @property
    def rate(self) -> float:
        if self._slot != _NO_SLOT:
            return float(self._net._rates[self._slot])
        return self._rate

    @property
    def last_update(self) -> float:
        if self._slot != _NO_SLOT:
            return self._net._last_settle
        return self._last_update

    @property
    def done(self) -> bool:
        return self.end_time is not None

    @property
    def local(self) -> bool:
        return self.src == self.dst

    def bytes_done(self, now: float) -> float:
        """Bytes delivered by simulated time ``now`` (monotone in ``now``)."""
        if self.done:
            return self.size
        drained = self.size - self.remaining + self.rate * (now - self.last_update)
        return min(self.size, max(0.0, drained))

    def progress(self, now: float) -> float:
        """Fraction of bytes delivered, in [0, 1]."""
        if self.size <= 0:
            return 1.0
        return self.bytes_done(now) / self.size

    def __hash__(self) -> int:
        return self.fid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Flow) and other.fid == self.fid

    def __repr__(self) -> str:
        state = "done" if self.done else ("cancelled" if self.cancelled else "active")
        return (
            f"Flow({self.fid}, {self.src}->{self.dst}, "
            f"{self.size:.0f}B, {state})"
        )


class FlowNetwork:
    """Shared-fabric transfer service over a :class:`Topology`.

    Parameters
    ----------
    sim:
        The simulation clock.
    topology:
        Supplies routes and link capacities.
    local_bandwidth:
        Streaming rate for node-local (disk) transfers; may be overridden
        per flow via ``local_rate``.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        *,
        local_bandwidth: float = 400.0 * MB,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.local_bandwidth = local_bandwidth
        self._next_fid = 0
        #: Monotone state-version counter: bumped whenever anything that
        #: affects :meth:`path_rate` changes (fabric flow attach/detach,
        #: capacity-factor change).  Consumers cache derived views keyed
        #: on this value — see ``Cluster.path_costs``.
        self.epoch = 0
        self._no_cache = caching_disabled()
        # lazily built static route tensor behind rate_matrix
        self._rm_static: Optional[tuple] = None
        self._rm_route_version = -1
        # incremental share state for link_shares over one link list (the
        # route tensor's or the tree chains'): per-link flow counts
        # (mirroring _link_flows, maintained on attach/detach) and
        # effective capacities (rebuilt when the cap state changes)
        self._rm_links: Optional[List[LinkKey]] = None
        self._rm_sid: Optional[Dict[LinkKey, int]] = None
        self._rm_counts: Optional[np.ndarray] = None
        self._rm_eff: Optional[np.ndarray] = None
        self._cap_state_version = 0
        self._rm_eff_version = -1
        # per-link bookkeeping (path_rate estimates + dense registry)
        self._link_flows: Dict[LinkKey, int] = {}      # live flow count
        self._link_ids: Dict[LinkKey, int] = {}
        self._caps_arr = np.zeros(0, dtype=np.float64)
        # transient capacity rescaling (fault injection); absent key = 1.0,
        # so zero-fault runs never touch these floats
        self._cap_factors: Dict[LinkKey, float] = {}
        # failed links (fault injection): effective capacity 0.  Every
        # consumer fast-paths on the empty set, so zero-fault runs are
        # byte-identical to builds without fabric fault tolerance.
        self._down_links: Set[LinkKey] = set()
        self._down_version = 0
        self._iso_cache: Optional[frozenset] = None
        self._iso_version = -1
        # slot-indexed state of active fabric flows
        self._flows: List[Flow] = []
        self._routes: List[np.ndarray] = []
        cap0 = 64
        self._rem = np.zeros(cap0)
        self._rates = np.zeros(cap0)
        self._caps = np.zeros(cap0)
        self._route_lens = np.zeros(cap0, dtype=np.int64)
        self._drained_buf = np.zeros(cap0, dtype=np.int64)
        self._horizon_buf = np.zeros(1)
        self._kern_ptrs: Optional[tuple] = None  # cached C-kernel args
        # the compiled-kernel handle (process-global and stable) and this
        # fabric's persistent C-side link->flows membership, mirrored from
        # _attach/_detach.  Both stay None under REPRO_NO_CACHE, without a
        # compiler, or when the state cannot be allocated: every `self._kern
        # is not None` site then runs the numpy reference instead.
        self._kern = None
        self._cstate: Optional[int] = None
        kern = None if self._no_cache else _accel.refill_kernel()
        if kern is not None:
            ptr = kern.state_new()
            if ptr:
                self._kern, self._cstate = kern, ptr
                weakref.finalize(self, kern.state_free, ptr)
        self._finite_caps = 0  # attached flows with a finite max_rate
        self._refill_deferred = False
        self._last_settle = sim.now
        self._tick_event: Optional[Event] = None
        # run counters
        self.bytes_transferred = 0.0   # fabric bytes completed
        self.bytes_local = 0.0         # disk-stream bytes completed
        self.flows_started = 0
        self.flows_completed = 0
        self.reallocations = 0
        self.reroutes = 0              # in-flight flow migrations

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start_flow(
        self,
        src: str,
        dst: str,
        size: float,
        on_complete: Optional[Callable[[Flow], None]] = None,
        *,
        max_rate: float = math.inf,
        local_rate: Optional[float] = None,
    ) -> Flow:
        """Begin transferring ``size`` bytes from ``src`` to ``dst``.

        Returns the live :class:`Flow`; ``on_complete(flow)`` fires when the
        last byte arrives.  Zero-sized flows complete via a zero-delay event
        (never synchronously) so callers observe a uniform callback order.
        """
        if size < 0 or math.isnan(size):
            raise ValueError(f"invalid flow size {size}")
        if max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate}")
        flow = Flow(
            fid=self._next_fid,
            src=src,
            dst=dst,
            size=float(size),
            on_complete=on_complete,
            route=self.topology.route_for_flow(src, dst, self._next_fid),
            max_rate=max_rate,
            start_time=self.sim.now,
            net=self,
        )
        self._next_fid += 1
        self.flows_started += 1

        if flow.size <= _EPS_BYTES:
            flow._rate = math.inf
            flow._completion = self.sim.schedule(0.0, self._finish_simple, flow)
            return flow

        if flow.local:
            rate = min(local_rate if local_rate is not None else self.local_bandwidth,
                       flow.max_rate)
            if rate <= 0 or math.isinf(rate):
                raise ValueError(f"invalid local rate {rate}")
            flow._rate = rate
            flow._completion = self.sim.schedule(
                flow.size / rate, self._finish_simple, flow
            )
            return flow

        # register route links and attach to a state slot
        flow.route_ids = self._register_route(flow.route)
        self._settle_all()
        self._attach(flow)
        self._mark_dirty()
        return flow

    def _register_route(self, route: List[LinkKey]) -> np.ndarray:
        """Count a route's links in the live registry, returning dense ids.

        Bumps ``epoch`` itself: the per-link flow counts feed
        :meth:`rate_matrix`, so registration must invalidate it on every
        path.
        """
        ids = np.empty(len(route), dtype=np.int64)
        sid, counts = self._rm_sid, self._rm_counts
        for i, link in enumerate(route):
            self._link_flows[link] = self._link_flows.get(link, 0) + 1
            if sid is not None:
                s = sid.get(link)
                if s is not None:
                    counts[s] += 1.0
            lid = self._link_ids.get(link)
            if lid is None:
                lid = self._link_ids[link] = len(self._link_ids)
                self._caps_arr = np.append(
                    self._caps_arr, self.effective_capacity(link)
                )
            ids[i] = lid
        self.epoch += 1
        return ids

    def reroute_flow(self, flow: Flow, route: List[LinkKey]) -> bool:
        """Migrate an in-flight fabric flow onto ``route``, conserving bytes.

        The flow is settled at the current instant, detached from its old
        links, re-attached on the new ones with its remaining byte count
        carried over, and rates are recomputed via a zero-delay tick.  Used
        by the link-state control plane when the fabric converges after a
        failure.  No-op (returns False) for finished/cancelled/local flows
        or when the route is unchanged.
        """
        if flow.done or flow.cancelled or flow._slot == _NO_SLOT:
            return False
        if route == flow.route:
            return False
        self._settle_all()
        if self._refill_deferred:
            # the remaining-byte snapshot below must integrate a fresh rate
            self._flush_refill()
        remaining = float(self._rem[flow._slot])
        self._detach(flow)
        flow.route = route
        flow.route_ids = self._register_route(route)
        self._attach(flow)
        # _attach resets the slot to the full flow size; restore progress
        self._rem[flow._slot] = remaining
        flow._remaining = remaining
        self.reroutes += 1
        self._mark_dirty()
        return True

    def cancel_flow(self, flow: Flow) -> None:
        """Abort a transfer.  ``on_complete`` will not fire.  Idempotent."""
        if flow.done or flow.cancelled:
            return
        flow.cancelled = True
        if flow._completion is not None:
            flow._completion.cancel()
            flow._completion = None
        if flow._slot != _NO_SLOT:
            self._settle_all()
            if self._refill_deferred:
                # the final rate frozen into the detached flow must be fresh
                self._flush_refill()
            self._detach(flow)
            self._mark_dirty()

    @property
    def active_flows(self) -> int:
        """Number of in-flight fabric flows (excludes local disk streams)."""
        return len(self._flows)

    def flows_on_link(self, link: LinkKey) -> int:
        return self._link_flows.get(link, 0)

    # ------------------------------------------------------------------
    # transient capacity rescaling (fault injection)
    # ------------------------------------------------------------------
    def effective_capacity(self, link: LinkKey) -> float:
        """The link's current capacity: nominal times any degradation.

        A failed link reports 0.0 — flows crossing it stall in place until
        the link heals or the control plane migrates them.
        """
        if self._down_links and link in self._down_links:
            return 0.0
        cap = self.topology.link_capacity(link)
        if self._cap_factors:
            cap *= self._cap_factors.get(link, 1.0)
        return cap

    def link_utilisations(self) -> List[float]:
        """Current load fraction of every topology link (stable order).

        A link's utilisation is the sum of the max-min rates of the
        fabric flows crossing it over its effective capacity; links the
        fabric has never carried a flow on (or carrying none right now)
        report 0.0.  Read-only — the metrics plane samples this.
        """
        n = len(self._flows)
        n_links = len(self._caps_arr)
        # one pass: per-link sum of member rates via a weighted bincount
        # over the flow→link incidence, summed in slot order
        if n:
            used = np.bincount(
                np.concatenate(self._routes),
                weights=np.repeat(self._rates[:n], self._route_lens[:n]),
                minlength=n_links,
            )
        else:
            used = np.zeros(n_links)
        out: List[float] = []
        for link in self.topology.links():
            lid = self._link_ids.get(link)
            if lid is None or not used[lid]:
                out.append(0.0)
                continue
            cap = self.effective_capacity(link)
            out.append(float(used[lid]) / cap if cap > 0 else 0.0)
        return out

    def capacity_factor(self, link: LinkKey) -> float:
        return self._cap_factors.get(link, 1.0)

    def set_capacity_factor(self, link: LinkKey, factor: float) -> None:
        """Rescale a link's capacity (1.0 restores nominal).

        In-flight flows are settled at the current instant and their rates
        recomputed against the degraded capacity via a zero-delay tick, so
        the change takes effect immediately and deterministically.
        """
        if not (factor > 0.0) or math.isinf(factor):
            raise ValueError(f"capacity factor must be finite and > 0, got {factor}")
        if factor == 1.0:
            self._cap_factors.pop(link, None)
        else:
            self._cap_factors[link] = factor
        # Bump even when the link carries no flow yet: path_rate consults
        # effective_capacity for every route link, registered or not.
        self.epoch += 1
        self._cap_state_version += 1
        lid = self._link_ids.get(link)
        if lid is not None:
            self._settle_all()
            self._caps_arr[lid] = self.effective_capacity(link)
            self._mark_dirty()

    # ------------------------------------------------------------------
    # link/switch failures (fault injection + link-state control plane)
    # ------------------------------------------------------------------
    @property
    def down_links(self) -> Set[LinkKey]:
        """The currently failed links (read-only view)."""
        return self._down_links

    def set_link_down(self, link: LinkKey) -> bool:
        """Fail a link: its effective capacity drops to zero.

        In-flight flows crossing it are settled and stall at rate 0; new
        path-rate estimates see the dead link immediately.  Returns False
        (no-op) if the link was already down — overlapping faults are
        ref-counted by the injector, not here.
        """
        link = _canon(*link)
        if link in self._down_links:
            return False
        self._down_links.add(link)
        self._down_version += 1
        self.epoch += 1
        self._cap_state_version += 1
        lid = self._link_ids.get(link)
        if lid is not None:
            self._settle_all()
            self._caps_arr[lid] = 0.0
            self._mark_dirty()
        return True

    def set_link_up(self, link: LinkKey) -> bool:
        """Heal a failed link, restoring its effective capacity."""
        link = _canon(*link)
        if link not in self._down_links:
            return False
        self._down_links.discard(link)
        self._down_version += 1
        self.epoch += 1
        self._cap_state_version += 1
        lid = self._link_ids.get(link)
        if lid is not None:
            self._settle_all()
            self._caps_arr[lid] = self.effective_capacity(link)
            self._mark_dirty()
        return True

    def pair_blocked(self, src: str, dst: str) -> bool:
        """True when the pair's current route crosses a failed link.

        This is the data plane's own view: until the control plane
        converges (or for static/ECMP fabrics, until the link heals) the
        route is stale and transfers on it would stall, so shuffle fetches
        park and replica reads fail over.  Zero-cost when nothing is down.
        """
        if not self._down_links or src == dst:
            return False
        down = self._down_links
        return any(link in down for link in self.topology.route(src, dst))

    def note_route_change(self) -> None:
        """Invalidate rate caches after a routing-table change.

        Called by the control plane once per convergence; the route tensor
        itself is rebuilt lazily via the topology's ``route_version``.
        """
        self.epoch += 1

    def isolated_hosts(self) -> frozenset:
        """Hosts cut off from the largest live host component.

        Offer rounds decline slots on these nodes with ``no_route``.  The
        result is cached per down-link change; with no down links it is the
        empty set at dict-probe cost.
        """
        if not self._down_links:
            return frozenset()
        if self._iso_cache is not None and self._iso_version == self._down_version:
            return self._iso_cache
        graph = getattr(self.topology, "graph", None)
        if graph is None:
            # matrix topologies carry dedicated per-pair pipes; link faults
            # target graph-backed fabrics only
            iso: frozenset = frozenset()
        else:
            live = graph.copy()
            live.remove_edges_from(self._down_links)
            host_set = set(self.topology.hosts)
            comps = [c & host_set for c in nx.connected_components(live)]
            comps = [c for c in comps if c]
            main = max(comps, key=lambda c: (len(c), sorted(c)))
            iso = frozenset(host_set - main)
        self._iso_cache = iso
        self._iso_version = self._down_version
        return iso

    # ------------------------------------------------------------------
    # live path-rate estimation (network-condition-aware cost input)
    # ------------------------------------------------------------------
    def path_rate(self, src: str, dst: str) -> float:
        """Estimated rate a *new* flow would get on ``src → dst``.

        Per link the estimate is ``capacity / (n_flows + 1)`` — the fair
        share after the hypothetical flow joins — and the path rate is the
        minimum across its links.  Node-local paths return the disk rate.
        """
        if src == dst:
            return self.local_bandwidth
        rate = math.inf
        for link in self.topology.route(src, dst):
            cap = self.effective_capacity(link)
            share = cap / (self._link_flows.get(link, 0) + 1)
            rate = min(rate, share)
        return rate

    def link_shares(self, links: List[LinkKey]) -> np.ndarray:
        """Per-link fair share a *new* flow would get, over ``links``.

        Entry ``i`` is ``effective_capacity / (n_flows + 1)`` of
        ``links[i]`` — the same division :meth:`path_rate` makes — and the
        extra last entry, the padding id, is +inf.  The counts and
        capacities behind it are kept up to date incrementally for the
        most recent ``links`` list (by identity), so a call costs one
        vector division.
        """
        if self._rm_links is not links:
            # (re)build the incremental share state: link slot lookup,
            # per-slot live flow counts seeded from the dict ledger, and
            # a forced effective-caps refresh
            self._rm_links = links
            self._rm_sid = {link: s for s, link in enumerate(links)}
            self._rm_counts = np.fromiter(
                (self._link_flows.get(link, 0) for link in links),
                np.float64,
                len(links),
            )
            self._rm_eff_version = self._cap_state_version - 1
        if self._rm_eff_version != self._cap_state_version:
            self._rm_eff = np.fromiter(
                (self.effective_capacity(link) for link in links),
                np.float64,
                len(links),
            )
            self._rm_eff_version = self._cap_state_version
        n_links = len(links)
        share = np.empty(n_links + 1, dtype=np.float64)
        np.divide(self._rm_eff, self._rm_counts + 1.0, out=share[:n_links])
        share[n_links] = math.inf  # padding id: never the min
        return share

    def rate_matrix(self) -> np.ndarray:
        """Matrix of :meth:`path_rate` over all host pairs.

        ``R[a, b]`` is the estimated achievable rate from host ``a`` to host
        ``b``; the diagonal holds the local disk rate.  The paper's
        network-condition-aware variant feeds ``1 / R`` in place of the hop
        matrix (Section II-B-3).

        The matrix is computed as one vectorised gather+min of
        :meth:`link_shares` over the padded ``(k, k, max_route)`` link-index
        tensor of :meth:`Topology.route_tensor`, built lazily on the first
        call of each routing-table version (``route_version``).  The matrix
        itself is not cached here: ``Cluster.path_costs`` caches its
        inverse keyed on :attr:`epoch`, and reads tree topologies without
        it.  The returned array is read-only.
        Values are bit-identical to the per-pair :meth:`path_rate` walk
        (same shares, and ``min`` over the same float set is exact), which
        remains the reference path under ``REPRO_NO_CACHE=1``.
        """
        if self._no_cache:
            return self._rate_matrix_uncached()
        route_version = getattr(self.topology, "route_version", 0)
        if self._rm_static is None or self._rm_route_version != route_version:
            self._rm_static = self.topology.route_tensor()
            self._rm_route_version = route_version
        tensor, links = self._rm_static
        share = self.link_shares(links)
        k, _, depth = tensor.shape
        kern = self._kern
        if kern is not None:
            # C row-wise gather+min: skips the (k, k, depth) gathered
            # intermediate; bit-identical (min over NaN-free doubles).
            # Its only failure, depth <= 0, cannot happen: the tensor
            # is built with max_len >= 1.
            assert depth >= 1
            r = np.empty((k, k), dtype=np.float64)
            kern.gather_min(
                k * k, depth, tensor.ctypes.data,
                share.ctypes.data, r.ctypes.data,
            )
        else:
            r = share[tensor].min(axis=2)
        np.fill_diagonal(r, self.local_bandwidth)
        r.setflags(write=False)
        return r

    def _rate_matrix_uncached(self) -> np.ndarray:
        """Reference implementation: per-pair route walk (O(k² · route))."""
        hosts = self.topology.hosts
        k = len(hosts)
        r = np.empty((k, k), dtype=np.float64)
        for a in range(k):
            r[a, a] = self.local_bandwidth
            for b in range(a + 1, k):
                r[a, b] = r[b, a] = self.path_rate(hosts[a], hosts[b])
        return r

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------
    def _cstate_error(self, op: str, rc: int) -> RuntimeError:
        """The C membership mirror failed: a bug, never papered over."""
        return RuntimeError(
            f"C fabric state {op} failed with rc={rc} (-1 allocation "
            f"failure, -3 mirror out of sync) at {len(self._flows)} live "
            "fabric flows"
        )

    def _attach(self, flow: Flow) -> None:
        slot = len(self._flows)
        if slot == len(self._rem):  # grow capacity
            self._rem = np.concatenate([self._rem, np.zeros(slot)])
            self._rates = np.concatenate([self._rates, np.zeros(slot)])
            self._caps = np.concatenate([self._caps, np.zeros(slot)])
            self._route_lens = np.concatenate(
                [self._route_lens, np.zeros(slot, dtype=np.int64)]
            )
            self._drained_buf = np.zeros(2 * slot, dtype=np.int64)
        ids = flow.route_ids
        self._flows.append(flow)
        self._routes.append(ids)
        self._rem[slot] = flow.size
        self._rates[slot] = 0.0
        self._caps[slot] = flow.max_rate
        self._route_lens[slot] = len(ids)
        if math.isfinite(flow.max_rate):
            self._finite_caps += 1
        flow._slot = slot
        if self._kern is not None:
            rc = self._kern.state_attach(
                self._cstate, slot, ids.ctypes.data, len(ids)
            )
            if rc != 0:
                raise self._cstate_error("attach", rc)

    def _detach(self, flow: Flow) -> None:
        """Swap-remove the flow's slot; must be settled first."""
        slot = flow._slot
        assert slot != _NO_SLOT
        if self._kern is not None:
            rc = self._kern.state_detach(self._cstate, slot)
            if rc != 0:
                raise self._cstate_error("detach", rc)
        # freeze the flow's final view into its own fields
        flow._remaining = float(self._rem[slot])
        flow._rate = float(self._rates[slot])
        flow._last_update = self._last_settle
        flow._slot = _NO_SLOT
        last = len(self._flows) - 1
        moved = self._flows[last]
        if math.isfinite(flow.max_rate):
            self._finite_caps -= 1
        if slot != last:
            self._flows[slot] = moved
            self._routes[slot] = self._routes[last]
            self._rem[slot] = self._rem[last]
            self._rates[slot] = self._rates[last]
            self._caps[slot] = self._caps[last]
            self._route_lens[slot] = self._route_lens[last]
            moved._slot = slot
        self._flows.pop()
        self._routes.pop()
        sid, counts = self._rm_sid, self._rm_counts
        for link in flow.route:
            n = self._link_flows.get(link, 0) - 1
            if n <= 0:
                self._link_flows.pop(link, None)
            else:
                self._link_flows[link] = n
            if sid is not None:
                s = sid.get(link)
                if s is not None:
                    counts[s] -= 1.0
        self.epoch += 1

    # ------------------------------------------------------------------
    # the tick: settle → finish → refill → schedule
    # ------------------------------------------------------------------
    def _settle_all(self) -> None:
        """Integrate all fabric flows' progress up to the current instant."""
        now = self.sim.now
        dt = now - self._last_settle
        n = len(self._flows)
        if dt > 0 and n:
            rem = self._rem[:n]
            rem -= self._rates[:n] * dt
            np.maximum(rem, 0.0, out=rem)
        self._last_settle = now

    def _complete(self, flow: Flow) -> None:
        """Mark a flow finished and run its callback."""
        flow._rate = 0.0
        flow._remaining = 0.0
        flow.end_time = self.sim.now
        flow._completion = None
        self.flows_completed += 1
        if flow.local:
            self.bytes_local += flow.size
        else:
            self.bytes_transferred += flow.size
        if flow.on_complete is not None:
            flow.on_complete(flow)

    def _finish_simple(self, flow: Flow) -> None:
        """Completion event for local-disk and zero-size flows."""
        if flow.cancelled or flow.done:
            return
        self._complete(flow)

    def _mark_dirty(self) -> None:
        """Ensure a tick runs at the current instant (coalesced)."""
        ev = self._tick_event
        if ev is not None and ev.active and ev.time <= self.sim.now:
            return
        if ev is not None:
            ev.cancel()
        self._tick_event = self.sim.schedule(0.0, self._tick)

    def _tick(self) -> None:
        """Settle, finish drained flows, refill rates, schedule next tick.

        The common case — time advanced, nothing drained — runs as ONE
        fused C-kernel call (settle + drain-detect + refill + horizon)
        instead of a dozen numpy dispatches; see :mod:`repro.accel`.
        The kernel performs the identical float operations, so traces
        are byte-identical to the Python path it replaces.
        """
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        self.reallocations += 1
        kern = self._kern
        n = len(self._flows)
        if kern is not None and n:
            args = self._kernel_args()
            now = self.sim.now
            rc = kern.tick_state(
                self._cstate, n, len(self._caps_arr), args[0], args[1],
                1 if self._finite_caps else 0,
                now - self._last_settle, _EPS_BYTES,
                args[2], args[3], args[4], args[5],
            )
            self._last_settle = now
            if rc == 0:
                # nothing drained: rates are fresh, horizon computed
                self._refill_deferred = False
                return self._schedule_next(
                    horizon=float(self._horizon_buf[0])
                )
            if rc == -3:
                raise self._cstate_error("tick", rc)
            # rc > 0 slots drained; a negative rc is a refill that bailed
            # before anything drained, and the refill below falls back to
            # the reference, which raises its assertion with context
            drained_slots = self._drained_buf[: max(rc, 0)]
        else:
            self._settle_all()
            drained_slots = np.nonzero(self._rem[:n] <= _EPS_BYTES)[0]
        if len(drained_slots):
            # deterministic completion order within one instant
            drained = sorted(
                (self._flows[s] for s in drained_slots), key=lambda f: f.fid
            )
            for flow in drained:
                self._detach(flow)
            for flow in drained:
                self._complete(flow)   # callbacks may start flows
        # A completion callback that started (or cancelled) a flow has
        # scheduled a zero-delay follow-up tick at this very instant.  The
        # rates computed here would be recomputed there, unobserved in
        # between: simulated time cannot advance first, and over a
        # zero-width interval ``Flow.bytes_done`` multiplies the rate by
        # zero.  Defer the refill to that tick (``cancel_flow`` flushes the
        # deferral so a detaching flow still freezes a fresh final rate).
        ev = self._tick_event
        if (
            not self._no_cache
            and ev is not None
            and ev.active
            and ev.time <= self.sim.now
        ):
            self._refill_deferred = True
            return
        self._schedule_next(horizon=self._flush_refill())

    def _flush_refill(self) -> Optional[float]:
        """Clear any refill deferral and run :meth:`_refill` now.

        Every refill outside the fused C tick runs through here, so this
        is the one place the ``network.refill`` profiler scope opens.
        Returns the horizon :meth:`_refill` reports.
        """
        self._refill_deferred = False
        prof = _obs_profile.ACTIVE
        if prof is None:
            return self._refill()
        with prof.scope("network.refill"):
            return self._refill()

    def _schedule_next(self, horizon: Optional[float] = None) -> None:
        """One event at the earliest predicted completion among all flows.

        ``horizon`` carries the C tick kernel's precomputed value; the
        kernel returns -1.0 for "no flow progressing", mirroring the
        empty-``progressing`` branch below.
        """
        n = len(self._flows)
        if n == 0:
            return
        if horizon is None:
            # A capacity factor driven to ~0 can stall flows at rate 0;
            # they must not poison the horizon with a division warning /
            # inf, and at least one flow has to be progressing or no
            # future tick would ever drain the fabric.
            rates = self._rates[:n]
            progressing = rates > 0.0
            if not progressing.any():
                horizon = -1.0
            else:
                horizon = float(
                    (self._rem[:n][progressing] / rates[progressing]).min()
                )
        if horizon < 0.0:
            # every fabric flow is stalled behind a failed link; the heal /
            # re-route path marks the fabric dirty when capacity returns,
            # so there is nothing to schedule now
            assert self._down_links, "all fabric flows stalled at rate 0"
            return
        assert horizon > 0, "drained flow survived the tick"
        ev = self._tick_event
        if ev is not None and ev.active and ev.time <= self.sim.now + horizon:
            return
        if ev is not None:
            ev.cancel()
        self._tick_event = self.sim.schedule(horizon, self._tick)

    def _kernel_args(self) -> tuple:
        """Raw data pointers for the C kernels, cached on array identity.

        ctypes ``data_as()`` conversions cost more than the kernels
        themselves at the fabric's call rates, and the hot arrays only
        change object identity when they grow (the slot arrays all grow
        together in :meth:`_attach`) — so the pointer tuple is rebuilt
        only on an identity miss.  Returns ``(caps_p, fcaps_p, rem_p,
        rates_p, drained_p, horizon_p)``.
        """
        ptrs = self._kern_ptrs
        if (
            ptrs is not None
            and ptrs[0] is self._caps_arr
            and ptrs[1] is self._rem
        ):
            return ptrs[2]
        args = (
            self._caps_arr.ctypes.data,
            self._caps.ctypes.data,
            self._rem.ctypes.data,
            self._rates.ctypes.data,
            self._drained_buf.ctypes.data,
            self._horizon_buf.ctypes.data,
        )
        self._kern_ptrs = (self._caps_arr, self._rem, args)
        return args

    def _refill(self) -> Optional[float]:
        """Recompute max-min fair rates for all fabric flows.

        Progressive filling with per-flow rate caps and *tie-collapsed*
        freeze rounds: each round finds the tightest constraint — the
        smallest per-link fair share or the smallest unfrozen flow cap —
        and freezes **every** flow pinned by a constraint at exactly that
        value (all unfrozen members of every minimum-share link, or every
        unfrozen flow in the minimum equal-cap group).  Crossed links then
        lose ``rate * count`` of residual capacity in one fused update.
        Collapsing ties this way runs one round per *distinct rate
        level*, and each frozen flow's links are updated with a single
        multiply-subtract rather than one scalar update per (flow, link).

        There are exactly two implementations.  The fast one is the C
        kernel from :mod:`repro.accel` (the default whenever a system
        compiler is present; disable with ``REPRO_NO_CKERNEL=1``), which
        reads the link→flows membership this network mirrors into C on
        every attach/detach.  The other is :meth:`_refill_reference`,
        which serves ``REPRO_NO_CACHE=1``, ``REPRO_NO_CKERNEL=1`` and
        hosts without a compiler.  Both perform the same floating-point
        operations on the same operand sets: the freeze *set* is
        determined by link identity alone, per-link decrement counts are
        order-free integers, the ``residual - rate * count`` update uses
        identical operands, and the kernel is built with
        ``-ffp-contract=off`` so no FMA contraction can perturb a
        rounding — so the two are bit-identical.
        ``tests/test_perf_cache.py`` holds them to byte-identical traces.

        Returns the kernel's next-completion horizon (see
        :meth:`_schedule_next`), or None when the reference ran.  A
        mirror out of sync with the slot table raises; an uncapped flow
        without route links falls through to the reference, which raises
        its assertion with context.
        """
        kern = self._kern
        n = len(self._flows)
        if kern is not None and n:
            args = self._kernel_args()
            rc = kern.refill_horizon_state(
                self._cstate, n, len(self._caps_arr), args[0], args[1],
                1 if self._finite_caps else 0, args[2], args[3], args[5],
            )
            if rc == 0:
                return float(self._horizon_buf[0])
            if rc == -3:
                raise self._cstate_error("refill", rc)
        self._refill_reference()
        return None

    def _refill_reference(self) -> None:
        """The pure-numpy refill, the A/B reference for :meth:`_refill`.

        Builds the flow→link and link→flow CSR structures up front and
        gathers candidates and frozen flows' links through them, running
        the same tie-collapsed progressive filling as the C kernel behind
        :meth:`_refill`: identical share divisions, identical freeze sets
        (all unfrozen members of every minimum-share link), and identical
        fused ``rate * count`` capacity updates.  It is the implementation
        of record under ``REPRO_NO_CACHE=1`` and ``REPRO_NO_CKERNEL=1``
        and when no C compiler is available.
        """
        nF = len(self._flows)
        if nF == 0:
            return

        # flow -> link incidence in CSR form over the dense link registry
        routes = self._routes
        lens = self._route_lens[:nF]
        flat = np.concatenate(routes)
        ptr = np.zeros(nF + 1, dtype=np.int64)
        np.cumsum(lens, out=ptr[1:])
        owner = np.repeat(np.arange(nF), lens)
        n_links = len(self._caps_arr)

        residual = self._caps_arr.copy()
        nflows = np.bincount(flat, minlength=n_links).astype(np.float64)

        # link -> flows (CSR by sorting the incidence pairs on link id)
        order = np.argsort(flat, kind="stable")
        l_sorted = flat[order]
        f_sorted = owner[order]
        bounds = np.searchsorted(l_sorted, np.arange(n_links + 1))

        flow_caps = self._caps[:nF]
        cap_order = np.argsort(flow_caps, kind="stable")
        cap_ptr = 0

        frozen = np.zeros(nF, dtype=bool)
        new_rates = self._rates[:nF]
        share = np.empty(n_links)
        left = nF
        while left > 0:
            share.fill(math.inf)
            np.divide(residual, nflows, out=share, where=nflows > 0)
            best_share = float(share.min()) if n_links else math.inf
            while cap_ptr < nF and frozen[cap_order[cap_ptr]]:
                cap_ptr += 1
            min_cap = flow_caps[cap_order[cap_ptr]] if cap_ptr < nF else math.inf
            if min_cap < best_share:
                rate = min_cap
                j = cap_ptr
                while j < nF and flow_caps[cap_order[j]] == rate:
                    j += 1
                fr = cap_order[cap_ptr:j]
                fr = fr[~frozen[fr]]
            else:
                assert math.isfinite(best_share), "uncapped flow with no route links"
                rate = best_share
                tied = np.nonzero(share == best_share)[0]
                if len(tied) == 1:
                    lid = int(tied[0])
                    cand = f_sorted[bounds[lid]:bounds[lid + 1]]
                else:
                    cand = np.unique(np.concatenate(
                        [f_sorted[bounds[lid]:bounds[lid + 1]] for lid in tied]
                    ))
                fr = cand[~frozen[cand]]
            frozen[fr] = True
            new_rates[fr] = rate
            left -= len(fr)
            # gather the ragged link lists of the frozen flows
            counts = lens[fr]
            total = int(counts.sum())
            if total:
                starts = np.repeat(ptr[fr], counts)
                offs = np.arange(total) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                links_fr = flat[starts + offs]
                cnt = np.bincount(links_fr, minlength=n_links)
                residual -= rate * cnt
                nflows -= cnt
        np.maximum(residual, 0.0, out=residual)
