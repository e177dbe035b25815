"""Transmission-cost computation — Formulae (1), (2) and (3) of the paper.

For map tasks (Formula 1)::

    C_m(i, j) = B_j * min_{l : L_lj = 1} h_il

the cost of running map ``j`` on node ``i`` is its block size times the
distance to the *closest replica* of its block.

For reduce tasks (Formulae 2–3)::

    C_r(i, f) = sum_j sum_p x_jp * h_pi * I_hat_jf

the cost of running reduce ``f`` on node ``i`` sums, over every *placed* map
``j`` (``x_jp`` marks map j on node p), the distance from the map's node
times the (estimated) intermediate bytes the map produces for ``f``.
``I_hat`` comes from a pluggable :mod:`~repro.core.estimator`; maps that have
not been placed yet contribute nothing, since their location is unknown at
scheduling time.

:class:`JobCostModel` evaluates both quantities **vectorised over (node,
task) grids** — the scheduler needs the whole cost matrix of free nodes ×
candidate tasks to compute ``C_ave`` in Formulae (4)–(5).  Both distances
are :mod:`repro.cluster.pathcost` views read through ``take``: the
cluster's static hop view (``Cluster.hop_costs``) or the live inverse
rates of the network-condition variant (Section II-B-3).  Two caches hold
for the static hop view only:

* the full ``(k, m)`` map-cost matrix (replicas never move), and
* ``Sc``, the running ``(k, n)`` sum of completed maps' reduce-cost
  contributions (a completed map's ``I_hat`` row is exact and frozen, so its
  outer-product contribution can be folded in once).

Against a rate view both quantities are recomputed, reading only the
entries the formulas need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.cache import caching_disabled
from repro.cluster.pathcost import DensePathCosts, PathCosts
from repro.coherence import cached_on
from repro.core.estimator import IntermediateEstimator, ProgressEstimator
from repro.obs import profile as _obs_profile

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job
    from repro.engine.task import MapTask

__all__ = ["JobCostModel", "map_cost_matrix", "reduce_cost_matrix", "finite_mean"]


def finite_mean(costs: np.ndarray) -> np.ndarray:
    """Column mean over candidates with a live route (the Formula 4/5 mean).

    Under fabric faults an unreachable candidate's cost is +inf (a
    partitioned pair's inverse rate); averaging it in would poison
    ``C_ave`` for every task, so the mean is taken over finite entries
    only.  A column with no finite entry (task unreachable from every
    free node) stays +inf — the probability model maps any infinite
    placement cost to acceptance probability 0, so such a task just
    waits for the partition to heal.  With all costs finite this is
    exactly ``costs.mean(axis=0)``.
    """
    finite = np.isfinite(costs)
    if finite.all():
        return costs.mean(axis=0)
    count = finite.sum(axis=0)
    total = np.where(finite, costs, 0.0).sum(axis=0)
    return np.where(count > 0, total / np.maximum(count, 1), np.inf)


def map_cost_matrix(
    distance: np.ndarray,
    block_sizes: np.ndarray,
    replica_indices: Sequence[np.ndarray],
) -> np.ndarray:
    """Stateless Formula (1) over a (node × map) grid.

    Parameters
    ----------
    distance:
        ``(k, k)`` distance matrix (hops or inverse rates).
    block_sizes:
        ``(m,)`` input bytes per map.
    replica_indices:
        Per map, the host indices of its block's replicas.

    Returns the ``(k, m)`` cost matrix.
    """
    return _nearest_replica_costs(
        DensePathCosts(distance),
        np.arange(distance.shape[0]),
        block_sizes,
        replica_indices,
    )


def _nearest_replica_costs(
    paths: PathCosts,
    node_indices: np.ndarray,
    block_sizes: np.ndarray,
    replica_indices: Sequence[np.ndarray],
) -> np.ndarray:
    """Formula (1) for the ``node_indices`` rows, reading ``paths`` at
    those nodes × the replica holders only."""
    rows = node_indices[None, :, None]
    m = len(block_sizes)
    out = np.empty((len(node_indices), m), dtype=np.float64)
    # group maps by replica count so the nearest-replica min runs as one
    # (r, rows, g) gather per group instead of a python loop over maps; the
    # replication factor is constant in practice, so this is one group.
    # Replica-major, the min is elementwise across r contiguous slabs.
    # min is exact (the result is one of the inputs, no rounding), so the
    # reduction order cannot change the bytes.
    by_count: dict = {}
    for j in range(m):
        by_count.setdefault(len(replica_indices[j]), []).append(j)
    for group in by_count.values():
        js = np.asarray(group, dtype=np.int64)
        reps = np.stack([replica_indices[j] for j in group])
        vals = paths.take(rows, reps.T[:, None, :]).min(axis=0)
        vals *= block_sizes[js]
        zero = block_sizes[js] == 0.0
        if zero.any():
            # a zero-byte block costs nothing even when every replica is
            # behind a partitioned fabric (inf * 0 would be NaN)
            vals[:, zero] = 0.0
        out[:, js] = vals
    return out


def _inf_safe_matmul(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``d @ w`` where an infinite distance paired with zero weight
    contributes nothing.

    Under fabric partitions the inverse-rate distance matrix contains
    +inf entries; IEEE ``inf * 0`` is NaN and one NaN poisons the whole
    matmul column.  A *positive* weight across an infinite distance still
    yields +inf — unreachable placements must look infinitely expensive,
    never NaN.  With a finite ``d`` this is exactly ``d @ w``.
    """
    inf_mask = np.isinf(d)
    if not inf_mask.any():
        return d @ w
    out = np.where(inf_mask, 0.0, d) @ w
    unreachable = inf_mask.astype(np.float64) @ (w > 0.0)
    out[unreachable > 0.0] = np.inf
    return out


def reduce_cost_matrix(
    distance: np.ndarray,
    map_nodes: np.ndarray,
    intermediate: np.ndarray,
) -> np.ndarray:
    """Stateless Formulae (2)/(3) over a (node × reduce) grid.

    Parameters
    ----------
    distance:
        ``(k, k)`` distance matrix.
    map_nodes:
        ``(m',)`` host index of each placed map.
    intermediate:
        ``(m', n)`` (estimated) intermediate bytes per placed map × reduce.

    Returns the ``(k, n)`` cost matrix ``C[i, f] = sum_j d[p_j, i] * I[j, f]``.
    """
    if len(map_nodes) == 0:
        return np.zeros((distance.shape[0], intermediate.shape[1]))
    # (k, m') @ (m', n) -> (k, n)
    return _inf_safe_matmul(distance[:, map_nodes], intermediate)


class JobCostModel:
    """Per-job incremental cost evaluation.

    Attach with :meth:`attach` (or construct directly and register the
    listeners yourself).  One model serves every scheduler that needs costs
    for the job — PNA, Coupling's centrality computation, and the greedy
    ablation all share it.

    Every ``distance`` argument takes a
    :class:`~repro.cluster.pathcost.PathCosts` view (wrap a dense ``(k, k)``
    matrix in a ``DensePathCosts``); ``None`` reads the cluster's static
    hop view, ``Cluster.hop_costs``, with its incremental caches.
    """

    def __init__(self, job: "Job") -> None:
        self.job = job
        cluster = job.tracker.cluster
        namenode = job.tracker.namenode
        self._hops = cluster.hop_costs
        self._k = cluster.num_nodes
        self._all_nodes = np.arange(self._k)
        self._m = job.num_maps
        self._n = job.num_reduces
        self._B = np.array([b.size for b in job.file.blocks], dtype=np.float64)
        self._replicas: List[np.ndarray] = [
            namenode.replica_indices(b) for b in job.file.blocks
        ]
        # caches for the static hop view
        self._map_cost_hops: Optional[np.ndarray] = None
        self._Sc = np.zeros((self._k, self._n), dtype=np.float64)
        self._no_cache = caching_disabled()
        # the netcond running cost vectors: completed-map contribution
        # matrix against a path-cost view, keyed on (map_version, view
        # identity).  A view lives for one network epoch; holding it in the
        # key tuple pins its id, making the identity probe safe.
        self._dist_done_cache: Optional[tuple] = None
        # per-offer (c_here, c_ave) bundles, keyed on the identity of the
        # distance plus the free-slot and pending index sets by content
        # (and map_version for reduces) — consecutive offers between state
        # changes share one evaluation
        self._map_offer_cache: Optional[tuple] = None
        self._reduce_offer_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, job: "Job") -> "JobCostModel":
        """Create a model and register it on the job's event hooks."""
        model = cls(job)
        job.map_done_listeners.append(model._on_map_done)
        job.map_lost_listeners.append(model._on_map_lost)
        return model

    def _on_map_done(self, task: "MapTask") -> None:
        """Fold a completed map's exact contribution into the ``Sc`` cache."""
        self._Sc += self._hop_contribution(task)

    def _on_map_lost(self, task: "MapTask") -> None:
        """Unfold a lost map's contribution: its output died with its node
        and the re-execution will fold a fresh placement back in."""
        self._Sc -= self._hop_contribution(task)

    def _hop_contribution(self, task: "MapTask") -> np.ndarray:
        hops = self._hops.take(task.node.index, self._all_nodes)
        return np.outer(hops, self.job.I[task.index, :])

    # ------------------------------------------------------------------
    # Formula (1)
    # ------------------------------------------------------------------
    def map_costs(
        self,
        node_indices: np.ndarray,
        task_indices: np.ndarray,
        distance: Optional[PathCosts] = None,
    ) -> np.ndarray:
        """Cost matrix for placing each candidate map on each node.

        The static hop view is cached as one full ``(k, m)`` matrix; a rate
        view is read at the candidate nodes × replica holders only.
        """
        paths = self._hops if distance is None else distance
        node_indices = np.asarray(node_indices, dtype=np.int64)
        task_indices = np.asarray(task_indices, dtype=np.int64)
        if paths is self._hops:
            if self._map_cost_hops is None:
                self._map_cost_hops = _nearest_replica_costs(
                    paths, self._all_nodes, self._B, self._replicas
                )
            return self._map_cost_hops[np.ix_(node_indices, task_indices)]
        # each output element is the same min/multiply over the same
        # floats as building all k rows and row-subsetting: same bytes
        return _nearest_replica_costs(
            paths,
            node_indices,
            self._B[task_indices],
            [self._replicas[j] for j in task_indices],
        )

    # ------------------------------------------------------------------
    # Formulae (2)-(3)
    # ------------------------------------------------------------------
    def reduce_costs(
        self,
        node_indices: np.ndarray,
        reduce_indices: np.ndarray,
        now: float,
        estimator: Optional[IntermediateEstimator] = None,
        distance: Optional[PathCosts] = None,
    ) -> np.ndarray:
        """Estimated cost matrix for placing each candidate reduce on each node.

        Sums contributions from every *started* map: completed maps count
        their exact output, running maps the estimator's ``I_hat`` row.
        Against the static hop view the completed part comes from the
        incremental ``Sc`` cache; a rate view recomputes it once per view.
        """
        prof = _obs_profile.ACTIVE
        if prof is not None:
            prof.push("cost.reduce_costs")
        try:
            node_indices = np.asarray(node_indices, dtype=np.int64)
            reduce_indices = np.asarray(reduce_indices, dtype=np.int64)
            est = estimator if estimator is not None else ProgressEstimator()
            paths = self._hops if distance is None else distance

            views = self.job.map_views()
            running = views.running
            if paths is self._hops:
                base = self._Sc[np.ix_(node_indices, reduce_indices)]
            else:
                # the completed-map part is a gather from the full (k, n)
                # contribution matrix — the netcond analogue of ``Sc`` —
                # so consecutive offers against one view pay for the
                # matmul once
                done = self._distance_done_matrix(paths)
                base = done[np.ix_(node_indices, reduce_indices)]

            if running:
                if self._no_cache:
                    p_run = np.array(
                        [m.node.index for m in running], dtype=np.int64
                    )
                    est_rows = np.stack(
                        [est.estimate(m, now) for m in running]
                    )
                else:
                    p_run = views.running_nodes
                    est_rows = est.estimate_many(running, now)
                est_rows = est_rows[:, reduce_indices]
                base = base + _inf_safe_matmul(
                    paths.take(node_indices[:, None], p_run[None]), est_rows
                )
            return base
        finally:
            if prof is not None:
                prof.pop()

    def _done_hit(self, paths: PathCosts) -> bool:
        cached = self._dist_done_cache
        return (
            cached is not None
            and cached[0] == self.job.map_version
            and cached[1] is paths
        )

    @cached_on(
        "job.map_version",
        reference="_distance_done_matrix_uncached",
        probe=lambda self, paths: self._done_hit(paths),
    )
    def _distance_done_matrix(self, paths: PathCosts) -> np.ndarray:
        """Completed-map reduce contributions against a path-cost view.

        The full ``(k, n)`` netcond analogue of the ``Sc`` accumulator:
        ``sum_{j done} d[:, p_j] * I[j, :]``, keyed on (map_version, view
        identity) so every offer within one epoch shares a single matmul.
        """
        if not self._done_hit(paths):
            cd = self._distance_done_matrix_uncached(paths)
            cd.setflags(write=False)
            self._dist_done_cache = (self.job.map_version, paths, cd)
        return self._dist_done_cache[2]

    def _distance_done_matrix_uncached(self, paths: PathCosts) -> np.ndarray:
        """Reference recompute behind :meth:`_distance_done_matrix`."""
        done = [m for m in self.job.maps if m.done]
        if not done:
            return np.zeros((self._k, self._n))
        p = np.fromiter((m.node.index for m in done), np.int64, len(done))
        idx = np.fromiter((m.index for m in done), np.int64, len(done))
        # all k rows x the done-map columns, whatever the view, laid out
        # column-major as the ``d[:, p]`` gather of a dense matrix is: one
        # (k, m') @ (m', n) matmul shape and layout, so BLAS runs the same
        # kernel and gives the same bytes
        cols = np.asfortranarray(paths.take(self._all_nodes[:, None], p[None]))
        return _inf_safe_matmul(cols, self.job.I[idx, :])

    def realised_reduce_costs(
        self, node_indices: np.ndarray, reduce_indices: np.ndarray
    ) -> np.ndarray:
        """Formula (2) with exact ``I`` over *all* maps — the oracle cost.

        Only meaningful once every map is placed; used by analyses and tests
        to compare estimated against true costs.  The completed-map part is
        a gather from the same running ``Sc`` accumulator the estimated path
        uses; only the still-running maps (whose exact rows ``Sc`` cannot
        hold yet) cost a matmul.
        """
        placed = self.job.started_maps()
        if len(placed) != self._m:
            raise RuntimeError("realised cost needs all maps placed")
        node_indices = np.asarray(node_indices, dtype=np.int64)
        reduce_indices = np.asarray(reduce_indices, dtype=np.int64)
        base = self._Sc[np.ix_(node_indices, reduce_indices)]
        running = [m for m in placed if not m.done]
        if running:
            p = np.array([m.node.index for m in running], dtype=np.int64)
            idx = np.array([m.index for m in running], dtype=np.int64)
            rows = self.job.I[np.ix_(idx, reduce_indices)]
            d = self._hops.take(node_indices[:, None], p[None])
            base = base + d @ rows
        return base

    # ------------------------------------------------------------------
    # per-offer bundles — Formulae (4)-(5) inputs
    # ------------------------------------------------------------------
    def _map_offer_hit(
        self, node_indices: np.ndarray, task_indices: np.ndarray, distance
    ) -> bool:
        cached = self._map_offer_cache
        return (
            cached is not None
            and cached[0] is distance
            and np.array_equal(cached[1], node_indices)
            and np.array_equal(cached[2], task_indices)
        )

    @cached_on(
        # content-keyed: the key arrays themselves are the version — a hit
        # requires byte-equal index sets and the identical distance object
        reference="_map_offer_costs_uncached",
        probe=lambda self, row, node_indices, task_indices, distance=None: (
            self._map_offer_hit(node_indices, task_indices, distance)
        ),
    )
    def map_offer_costs(
        self,
        row: int,
        node_indices: np.ndarray,
        task_indices: np.ndarray,
        distance: Optional[PathCosts] = None,
    ) -> tuple:
        """``(C_here, C_ave)`` for a map offer from free-view row ``row``.

        Formula (1) reads nothing but the free set, the pending set and
        the distance snapshot, so the matrix and its finite column mean
        are keyed on exactly those — the index arrays by *content* (a
        completed map bumps ``map_version`` and refreshes the views
        without changing either set), the distance by identity.  Offers
        between genuine set changes then share one evaluation; only the
        row gather is per-offer.
        """
        if not self._map_offer_hit(node_indices, task_indices, distance):
            costs = self.map_costs(node_indices, task_indices, distance)
            c_ave = finite_mean(costs)
            costs.setflags(write=False)
            c_ave.setflags(write=False)
            self._map_offer_cache = (
                distance, node_indices, task_indices, costs, c_ave
            )
        costs, c_ave = self._map_offer_cache[3:]
        return costs[row], c_ave

    def _map_offer_costs_uncached(
        self,
        row: int,
        node_indices: np.ndarray,
        task_indices: np.ndarray,
        distance: Optional[PathCosts] = None,
    ) -> tuple:
        """Reference recompute behind :meth:`map_offer_costs`: evaluate the
        whole cost matrix for this one offer, exactly as a cache miss."""
        costs = self.map_costs(node_indices, task_indices, distance)
        return costs[row], finite_mean(costs)

    def _reduce_offer_hit(
        self, node_indices: np.ndarray, reduce_indices: np.ndarray, distance
    ) -> bool:
        cached = self._reduce_offer_cache
        return (
            cached is not None
            and cached[0] == self.job.map_version
            and cached[1] is distance
            and np.array_equal(cached[2], node_indices)
            and np.array_equal(cached[3], reduce_indices)
        )

    @cached_on(
        "job.map_version",
        reference="_reduce_offer_costs_uncached",
        probe=lambda self, row, node_indices, reduce_indices, now,
        estimator=None, distance=None: (
            self._reduce_offer_hit(node_indices, reduce_indices, distance)
        ),
    )
    def reduce_offer_costs(
        self,
        row: int,
        node_indices: np.ndarray,
        reduce_indices: np.ndarray,
        now: float,
        estimator: Optional[IntermediateEstimator] = None,
        distance: Optional[PathCosts] = None,
    ) -> tuple:
        """``(C_here, C_ave)`` for a reduce offer from free-view row ``row``.

        Cacheable only once the job's maps are all settled: a running
        map's estimator row drifts with progress reports that bump no
        version counter, so offers are shared only when no map is running
        (the common state during the reduce phase).  The key is then
        ``map_version`` (done contributions) plus the distance snapshot by
        identity and both index sets by content.
        """
        if self.job.running_maps():
            return self._reduce_offer_costs_uncached(
                row, node_indices, reduce_indices, now,
                estimator=estimator, distance=distance,
            )
        if not self._reduce_offer_hit(node_indices, reduce_indices, distance):
            costs = self.reduce_costs(
                node_indices, reduce_indices, now,
                estimator=estimator, distance=distance,
            )
            c_ave = finite_mean(costs)
            costs.setflags(write=False)
            c_ave.setflags(write=False)
            self._reduce_offer_cache = (
                self.job.map_version, distance, node_indices, reduce_indices,
                costs, c_ave,
            )
        costs, c_ave = self._reduce_offer_cache[4:]
        return costs[row], c_ave

    def _reduce_offer_costs_uncached(
        self,
        row: int,
        node_indices: np.ndarray,
        reduce_indices: np.ndarray,
        now: float,
        estimator: Optional[IntermediateEstimator] = None,
        distance: Optional[PathCosts] = None,
    ) -> tuple:
        """Reference recompute behind :meth:`reduce_offer_costs`."""
        costs = self.reduce_costs(
            node_indices, reduce_indices, now,
            estimator=estimator, distance=distance,
        )
        return costs[row], finite_mean(costs)
