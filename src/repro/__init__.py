"""repro: reproduction of "The End-to-End Effects of Internet Path
Selection" (Savage, Collins, Hoffman, Snell, Anderson - SIGCOMM 1999).

The package is organized bottom-up:

* :mod:`repro.topology` - a seeded model of the late-1990s Internet:
  geography, autonomous systems, routers, links, measurement hosts.
* :mod:`repro.routing` - intra-AS IGP and inter-AS BGP policy routing
  (valley-free export, local-pref, early-exit), plus host-to-host path
  resolution and a policy-free optimal baseline.
* :mod:`repro.netsim` - time-varying conditions: diurnal load, queuing
  delay, loss; vectorized path sampling.
* :mod:`repro.measurement` - traceroute / TCP-transfer measurement tools,
  request schedulers, ICMP rate limiting and its detection, and the
  campaign collector.
* :mod:`repro.datasets` - dataset containers, the per-paper-dataset
  builders (D2, N2, UW1, UW3, UW4-A/B and the -NA subsets), JSONL I/O.
* :mod:`repro.core` - the paper's contribution: synthetic alternate-path
  construction and every analysis in Sections 5-7.
* :mod:`repro.experiments` - regeneration of Tables 1-3 and Figures 1-16.
* :mod:`repro.obs` - zero-dependency run-wide tracing and metrics.
* :mod:`repro.api` - the :class:`~repro.api.ReproSession` facade over
  the whole pipeline.

Quick start::

    from repro import ReproSession

    session = ReproSession(seed=1999, scale=0.2)
    session.build(only=["UW3"])
    result = session.analyze("UW3", "rtt")
    print(f"{result.fraction_improved():.0%} of pairs have a better alternate")
"""

__version__ = "1.0.0"

from repro.api import ReproSession
from repro.core import Metric, analyze, analyze_bandwidth
from repro.datasets import BuildConfig, Dataset

__all__ = [
    "BuildConfig",
    "Dataset",
    "Metric",
    "ReproSession",
    "__version__",
    "analyze",
    "analyze_bandwidth",
]

