"""The benchmark's workloads.

Each workload loads a different layer of the package, so a change local
to one layer moves one workload and leaves the other alone:

* ``k2-strict-n16384`` -- the paper's non-vacuous regime (sigma = 0.9, both
  hypothesis flags hold).  Fibers are 1-uniform, so the oracle is idle and
  drawing and re-checking sets in ``verify`` carries the time.
* ``k3-oracle-n200`` -- the cold-oracle path.  The one set sampled from
  each fresh instance needs a fresh k = 2 witness, so
  ``nx.max_weight_matching`` inside ``bounded`` carries the time.

A run cycles over ``instances`` distinct instances derived from the run
seed and averages over them, which keeps the instance-to-instance
variation of the random workloads out of the run-to-run spread.  On
``k3-oracle-n200`` a second set from the same instance sometimes reuses
the first one's witness and halves the time, and how many instances do
so depends on the seed: ten seeds of 2 sets on 16 instances spread 0.13
(quartile distance over median) in ``report_s``.  So a run draws one set
from each of up to 32 instances and measures each about once (six seeds
spread 0.01).
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    gen: tuple          # (n, k, delta, eps) of gen_random
    pi: float
    eps: float
    mode: str
    sets: int           # sampled sets per instance
    instances: int      # distinct instances per run

    def instance_seed(self, seed: int, index: int) -> int:
        """Seed for both the generator and the sampler of one instance."""
        return seed * 1000 + index

    def build(self, hc, seed: int, index: int):
        return hc.gen_random(*self.gen, self.instance_seed(seed, index))


WORKLOADS = {w.name: w for w in (
    Workload("k2-strict-n16384", (16384, 2, 0.25, 0.3),
             pi=0.75, eps=0.3, mode="strict", sets=8, instances=1),
    Workload("k3-oracle-n200", (200, 3, 0.4, 0.3),
             pi=0.6, eps=0.3, mode="permissive", sets=1, instances=32),
)}
