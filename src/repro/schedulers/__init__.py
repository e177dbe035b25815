"""Task- and job-level schedulers: interface, baselines, reference points.

Every name loads on first use (PEP 562), so a run imports only the
schedulers it uses.  The paper's :class:`ProbabilisticNetworkAwareScheduler`
is also exported here; it lives in :mod:`repro.core`, which imports this
package.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("SchedulerContext", "TaskScheduler"),
    ".capacity": ("CapacityJobScheduler",),
    ".coupling": ("CouplingScheduler",),
    ".fair": ("FairScheduler",),
    ".joblevel": ("FIFOJobScheduler", "FairJobScheduler", "JobLevelScheduler"),
    ".simple": ("GreedyCostScheduler", "RandomScheduler"),
    "repro.core.scheduler": ("PNAConfig", "ProbabilisticNetworkAwareScheduler"),
})

__all__ = [
    "CapacityJobScheduler",
    "CouplingScheduler",
    "FIFOJobScheduler",
    "FairJobScheduler",
    "FairScheduler",
    "GreedyCostScheduler",
    "JobLevelScheduler",
    "PNAConfig",
    "ProbabilisticNetworkAwareScheduler",
    "RandomScheduler",
    "SchedulerContext",
    "TaskScheduler",
]
