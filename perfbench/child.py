"""One workload iteration in a fresh interpreter (started by run.py).

Modes:
  run    make the output directory, call the pipeline, report timings
  setup  stop just before the first stage call, report setup time only

setup_s runs from ``--spawned`` (the runner's CLOCK_MONOTONIC reading
just before it started this process) to the first stage call, so it
covers interpreter start, imports, config, dataset load and making the
output directory.  wall_s and cpu_s cover the stage call alone.  The result is
written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("run", "setup"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from meltcal import domain, pipeline
    from meltcal.pipeline import RunConfig
    from workloads import WORKLOADS

    if Path(pipeline.__file__).resolve().parent != ROOT / "src" / "meltcal":
        raise SystemExit(f"imported meltcal from {pipeline.__file__}, "
                         f"not from {ROOT / 'src'}")
    wl = WORKLOADS[args.workload]

    cfg = RunConfig(seed=args.seed, out_dir=str(args.out),
                    samples_per_condition=wl.samples_per_condition)
    dataset = domain.load_dataset(cfg.dataset_path)
    if len(dataset) != 13:
        raise SystemExit(f"expected the 13-condition bundled dataset, got {len(dataset)}")
    args.out.mkdir(parents=True)

    t0 = time.monotonic()
    result = {"setup_s": t0 - args.spawned}
    if args.mode == "run":
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        else:
            tracer = contextlib.nullcontext()
        c0 = os.times()
        with tracer:
            pipeline.run_stage(cfg, wl.stage)
        t1 = time.monotonic()
        c1 = os.times()
        result.update(
            wall_s=t1 - t0,
            cpu_s=(c1.user + c1.system) - (c0.user + c0.system),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            artifact_bytes=sum(p.stat().st_size for p in args.out.rglob("*")
                               if p.is_file()))
        if args.trace:
            result["spans"] = tracer.spans()
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
