"""Workload definitions shared by the runner and the per-iteration child.

Each workload is one call into the public pipeline API.  The RunConfig
seed comes from the benchmark's ``--seed``: it is ``--seed`` itself, or for
a workload with ``seeds_per_run = k`` the k seeds ``k*seed .. k*seed+k-1``.
Nothing else about the input varies with the seed.  Why each workload
exists, and which per-layer metrics it should and should not move, is in
README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    stage: str                     # pipeline.run_stage stage name
    samples_per_condition: int = 10
    # RunConfig seeds per run, derived from --seed, where the cost of one
    # input varies more from seed to seed than a regression bound
    seeds_per_run: int = 1
    # output that every iteration of one seed must reproduce exactly
    canonical: str = "report.json"
    # criteria 6 (calibration improvement) and 7 (alpha dominates SA)
    full_checks: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("bundled-cold", "run-all", full_checks=True),
        Workload("surrogate-dense", "validate-surrogate",
                 samples_per_condition=20, seeds_per_run=5,
                 canonical="surrogate_quality.json"),
    )
}
