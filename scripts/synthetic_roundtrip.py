#!/usr/bin/env python3
"""Self-consistency check: calibrate against synthetic data.

Generates melt-pool measurements from the reduced model at a known
parameter vector, runs the full pipeline on them, and reports how far the
posterior lands from the truth (in posterior standard deviations).  A
working inference stack should recover the identifiable parameters,
chiefly the absorption coefficient, to within a few sigma.

Usage: python3 scripts/synthetic_roundtrip.py [out_dir] [seed]
"""

import dataclasses
import sys
from pathlib import Path

from meltcal.domain import (
    PARAM_NAMES,
    bundled_dataset_path,
    load_dataset,
    prior_from_table2,
    synthetic_dataset,
    write_dataset,
)
from meltcal.forward import evaluate_reduced
from meltcal.pipeline import RunConfig, run_stage


def main() -> None:
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "runs/synthetic")
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    out_dir.mkdir(parents=True, exist_ok=True)

    prior = prior_from_table2()
    truth = dataclasses.replace(prior.nominal_params(), alpha=0.20)
    base = load_dataset(bundled_dataset_path())  # reuse the bundled laser schedules
    synth_path = out_dir / "synthetic_dataset.csv"
    write_dataset(synthetic_dataset(base, evaluate_reduced, truth), synth_path)

    cfg = RunConfig(dataset_path=str(synth_path), out_dir=str(out_dir),
                    seed=seed)
    report = run_stage(cfg, "run-all")

    post = report["posterior"]
    truth_vec = truth.as_array()
    print(f"{'parameter':12s} {'truth':>12s} {'post mean':>12s} {'z':>8s}")
    for i, name in enumerate(PARAM_NAMES):
        z = (post["mean"][i] - truth_vec[i]) / post["std"][i]
        print(f"{name:12s} {truth_vec[i]:12.5g} {post['mean'][i]:12.5g} {z:8.2f}")
    i = PARAM_NAMES.index("alpha")
    ok = post["ci_lower"][i] <= truth_vec[i] <= post["ci_upper"][i]
    print(f"alpha truth inside 95% CI: {ok}")


if __name__ == "__main__":
    main()
