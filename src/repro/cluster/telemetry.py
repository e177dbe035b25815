"""Degraded-mode network telemetry for condition-aware scheduling.

The paper's network-condition variant (§II-B-3) scores placements with
live path rates, which the simulator had been reading straight off
``Cluster.inverse_rate_matrix()`` — an oracle no deployment has.  Real
monitors sample periodically, measurements age between samples, probes
are noisy, and some probes are simply lost.  This module models that
measurement plane:

* :class:`TelemetryConfig` — the knobs: sampling ``period``, a
  ``staleness_budget`` after which a measurement is distrusted,
  multiplicative log-normal ``noise`` per probe, and Bernoulli
  ``drop_prob`` per path per sampling round.
* :class:`TelemetryMonitor` — holds the last measured inverse-rate for
  every directed node pair plus its timestamp.  Schedulers call
  :meth:`TelemetryMonitor.path_costs`, which degrades *per path*:
  fresh paths use the measured value, stale paths fall back to the
  static hop-count distance (the information that never goes stale).
  When every path is stale the call returns ``None`` — the exact
  sentinel the PNA cost model maps to its hop-matrix code path — so a
  fully-blind monitor reproduces the hop-count scheduler bit for bit.

Whenever the set of stale paths changes, the monitor emits a
``stale_telemetry`` trace event so degradation is observable in traces.

Determinism: the monitor owns a dedicated child of the run's
``SeedSequence`` fan-out, so enabling telemetry (even noisy, lossy
telemetry) never shifts placement, scheduler, background or fault draws.
With ``noise=0`` and ``drop_prob=0`` a sampling round stores the oracle
matrix verbatim, so ``period → 0`` reproduces the oracle scheduler's
decisions exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.pathcost import DensePathCosts, PathCosts

from repro.trace.events import StaleTelemetry
from repro.trace.recorder import NullRecorder

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cluster.cluster import Cluster

__all__ = ["TelemetryConfig", "TelemetryMonitor"]


def _check_number(name: str, value: object) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for the path-rate measurement plane.

    Attributes
    ----------
    period:
        Seconds between sampling rounds.  ``0`` means continuous
        measurement (every read is a fresh sample — the oracle regime);
        ``inf`` means the monitor never samples at all, so every path is
        permanently stale and scheduling degrades to hop counts.
    staleness_budget:
        A measurement older than this is distrusted and its path falls
        back to the hop-count distance.  ``inf`` trusts measurements
        forever.
    noise:
        Standard deviation of the per-probe log-normal factor: a sampled
        inverse rate is ``true * exp(N(0, noise))``.  ``0`` is exact.
    drop_prob:
        Per-path Bernoulli probability that a sampling round loses the
        probe, leaving the previous (aging) measurement in place.
    """

    period: float = 5.0
    staleness_budget: float = 15.0
    noise: float = 0.0
    drop_prob: float = 0.0

    def __post_init__(self) -> None:
        _check_number("period", self.period)
        if math.isnan(self.period) or self.period < 0:
            raise ValueError(
                f"period must be >= 0 (inf = never sample), got {self.period}"
            )
        _check_number("staleness_budget", self.staleness_budget)
        if math.isnan(self.staleness_budget) or self.staleness_budget <= 0:
            raise ValueError(
                "staleness_budget must be > 0 (inf = trust forever), got "
                f"{self.staleness_budget}"
            )
        _check_number("noise", self.noise)
        if not 0 <= self.noise < math.inf:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        _check_number("drop_prob", self.drop_prob)
        if not 0 <= self.drop_prob < 1:
            raise ValueError(
                f"drop_prob must be in [0, 1), got {self.drop_prob}"
            )


class TelemetryMonitor:
    """Last-measured inverse path rates, with per-path staleness fallback."""

    def __init__(
        self,
        cluster: "Cluster",
        config: TelemetryConfig,
        rng: np.random.Generator,
        *,
        recorder=None,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.rng = rng
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.sim = cluster.sim
        k = cluster.num_nodes
        self._inv = np.zeros((k, k), dtype=np.float64)
        #: per-path timestamp of the last successful probe (-inf = never)
        self._measured_at = np.full((k, k), -math.inf)
        self.samples_taken = 0
        self._version = 0
        self._last_stale_count = 0
        self._cache_key: Optional[tuple] = None
        self._cache_val: Optional[PathCosts] = None

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """One measurement round: probe every directed path once.

        Probes lost to ``drop_prob`` leave the previous measurement (and
        its age) untouched; delivered probes store the oracle value under
        the configured multiplicative noise.
        """
        oracle = self.cluster.inverse_rate_matrix()
        k = oracle.shape[0]
        if self.config.noise > 0:
            values = oracle * np.exp(
                self.rng.normal(0.0, self.config.noise, size=(k, k))
            )
            np.fill_diagonal(values, 0.0)
        else:
            values = oracle
        if self.config.drop_prob > 0:
            delivered = self.rng.random((k, k)) >= self.config.drop_prob
            np.copyto(self._inv, values, where=delivered)
            self._measured_at[delivered] = self.sim.now
        else:
            np.copyto(self._inv, values)
            self._measured_at.fill(self.sim.now)
        self.samples_taken += 1
        self._version += 1

    # ------------------------------------------------------------------
    def stale_mask(self, now: float) -> np.ndarray:
        """Boolean (k, k) mask of off-diagonal paths past the budget."""
        stale = (now - self._measured_at) > self.config.staleness_budget
        np.fill_diagonal(stale, False)
        return stale

    def path_costs(self, now: float) -> Optional[PathCosts]:
        """The scheduler-facing view at time ``now``.

        Returns ``None`` when *every* path is stale — the sentinel the
        cost model maps to its hop-count path — otherwise a dense
        path-cost view mixing fresh measurements with hop-count fallbacks
        per stale path.  One view is cached per ``(now, sample round)``.
        """
        if self.config.period == 0:
            self.sample()
        key = (now, self._version)
        if key == self._cache_key:
            return self._cache_val
        stale = self.stale_mask(now)
        stale_count = int(stale.sum())
        total = stale.shape[0] * (stale.shape[0] - 1)
        if stale_count != self._last_stale_count:
            self._last_stale_count = stale_count
            if self.recorder.enabled:
                self.recorder.emit(
                    StaleTelemetry(
                        t=now, stale_paths=stale_count, total_paths=total
                    )
                )
        if stale_count == total:
            view: Optional[PathCosts] = None
        elif stale_count == 0:
            # snapshot, never the live ``_inv`` buffer: downstream caches
            # (JobCostModel._distance_done_matrix) key on view *identity*,
            # and ``sample()`` overwrites ``_inv`` in place — viewing it
            # would let a later round mutate a matrix the cost model
            # still believes it has already reduced
            snapshot = self._inv.copy()
            snapshot.setflags(write=False)
            view = DensePathCosts(snapshot)
        else:
            mixed = np.where(stale, self.cluster.hop_matrix, self._inv)
            np.fill_diagonal(mixed, 0.0)
            mixed.setflags(write=False)
            view = DensePathCosts(mixed)
        self._cache_key = key
        self._cache_val = view
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetryMonitor(samples={self.samples_taken}, "
            f"stale={self._last_stale_count})"
        )
