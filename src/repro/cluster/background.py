"""Background cross-traffic: the shared-cluster network conditions of §II-B-3.

The paper motivates its network-condition-aware cost with clusters whose
"network bandwidth is shared among multiple jobs and the links have varied
available bandwidths" — on the Palmetto testbed the MapReduce slice shared
switches with other tenants.  :class:`BackgroundTraffic` reproduces that
environment: a Poisson process of bulk flows between (optionally hot-spotted)
node pairs, sized to consume a target fraction of the aggregate edge
capacity.  With a node-weight skew the load lands unevenly across racks,
which is precisely the signal the inverse-path-rate distance matrix can see
and hop counts cannot.

The generator is driven by the simulation clock and a seeded RNG, so runs
remain deterministic; it stops issuing new flows once ``should_continue``
returns False (the Simulation wires this to "all jobs finished") so the
event queue drains naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.cluster.network import FlowNetwork
from repro.units import MB

__all__ = ["BackgroundSpec", "BackgroundTraffic"]


@dataclass(frozen=True)
class BackgroundSpec:
    """Declarative description of cross-traffic intensity.

    Attributes
    ----------
    intensity:
        Target mean utilisation of the summed host-link capacity, e.g. 0.2
        keeps background flows consuming ~20 % of total edge bandwidth.
    mean_size:
        Mean flow size (exponentially distributed).
    hotspot_alpha:
        Zipf exponent over nodes for endpoint choice; 0 = uniform pairs,
        larger values concentrate traffic on a few "hot" nodes/racks.
    """

    intensity: float = 0.2
    mean_size: float = 256.0 * MB
    hotspot_alpha: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.intensity < 1.0:
            raise ValueError(f"intensity must be in [0, 1), got {self.intensity}")
        if self.mean_size <= 0:
            raise ValueError("mean_size must be positive")
        if self.hotspot_alpha < 0:
            raise ValueError("hotspot_alpha must be >= 0")


class BackgroundTraffic:
    """Poisson bulk-flow generator over a :class:`FlowNetwork`."""

    def __init__(
        self,
        network: FlowNetwork,
        spec: BackgroundSpec,
        rng: np.random.Generator,
        *,
        should_continue: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.network = network
        self.spec = spec
        self.rng = rng
        self.should_continue = should_continue or (lambda: True)
        hosts = network.topology.hosts
        self.hosts = hosts
        # total edge capacity = sum of host access links, left to right
        total_edge = 0.0
        for capacity in network.topology.access_link_capacities():
            total_edge += capacity
        # offered load (bytes/s) to hit the target utilisation
        offered = spec.intensity * total_edge / 2.0  # each flow uses 2 edges
        self.arrival_rate = offered / spec.mean_size  # flows per second
        w = np.arange(1, len(hosts) + 1, dtype=np.float64) ** (-spec.hotspot_alpha)
        nonzero = int(np.count_nonzero(w))
        if nonzero < 2:
            raise ValueError(
                f"hotspot_alpha={spec.hotspot_alpha} leaves {nonzero} "
                f"non-zero endpoint weight(s) over {len(hosts)} host(s); "
                "a background flow needs two distinct endpoints"
            )
        self.weights = w / w.sum()
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        self._cdf = cdf
        self.flows_issued = 0
        self.bytes_issued = 0.0
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the arrival process (idempotent)."""
        if self._running or self.arrival_rate <= 0:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop issuing new flows (in-flight flows drain normally)."""
        self._running = False

    def _schedule_next(self) -> None:
        gap = float(self.rng.exponential(1.0 / self.arrival_rate))
        self.network.sim.schedule(gap, self._arrival)

    def _arrival(self) -> None:
        if not self._running or not self.should_continue():
            self._running = False
            return
        src, dst = self._endpoints()
        size = float(self.rng.exponential(self.spec.mean_size))
        self.network.start_flow(self.hosts[src], self.hosts[dst], size)
        self.flows_issued += 1
        self.bytes_issued += size
        self._schedule_next()

    def _endpoints(self) -> Tuple[int, int]:
        """Two distinct host indices, drawn exactly as
        ``rng.choice(n, 2, replace=False, p=self.weights)`` draws them.

        numpy rebuilds the weights' CDF on every call; the first draw reads
        the one built in ``__init__``.  Only when both uniforms land on the
        same host does numpy redraw once, from the weights with that host
        zeroed, which is rebuilt here the same way.
        """
        src, dst = self._cdf.searchsorted(
            self.rng.random(2), side="right"
        ).tolist()
        if src == dst:
            p = self.weights.copy()
            p[src] = 0.0
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            dst = int(cdf.searchsorted(self.rng.random(1), side="right")[0])
        return src, dst
