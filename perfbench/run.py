"""meltcal benchmark: end-to-end and per-layer metrics for two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a meltcal checkout.  Workloads are defined in
workloads.py and explained in README.md.  Every iteration is a fresh
interpreter (child.py) that calls the public pipeline API once.  A round
runs each of the run's seeds once.  The first round always runs; another
starts only if it is expected to end within ``--seconds`` of the first.
With ``--trace 0`` the last stdout line reports the end-to-end metrics of
untraced iterations.  With ``--trace 1`` every seed runs traced and the
first seed once more untraced; the line reports the per-layer metrics of
the traced iterations plus the tracing overhead.  Every iteration's outputs are
checked; a failed check or a crashed iteration counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 6        # set-up-only children top iterations up to this
RUN_LIMIT_S = 165.0      # no iteration may end, or be expected to, after this
Q2_MIN = 0.90            # acceptance criterion 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

sys.path.insert(0, str(HERE))
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ChildError(RuntimeError):
    pass


def _code_digest() -> str:
    """Digest of the program and benchmark sources and of the BLAS thread
    count, keying stored outputs.  The thread count changes the order of
    floating-point reductions, so outputs differ in their last digits."""
    h = hashlib.sha256()
    h.update(repr([os.environ.get(v) for v in BLAS_THREAD_VARS]).encode())
    h.update(repr(os.cpu_count()).encode())
    for base, pattern in ((ROOT / "src", "*"), (HERE, "*.py")):
        for p in sorted(base.rglob(pattern)):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _child(mode: str, wl, seed: int, out: Path, result: Path, timeout: float,
           trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", wl.name, "--seed", str(seed), "--out", str(out),
           "--result", str(result), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())],
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(result.read_text(encoding="utf-8"))


def _canonical(path: Path) -> str:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.get("provenance", {}).pop("timestamp", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_outputs(wl, out: Path) -> tuple[list[str], dict]:
    """Correctness checks on one iteration's output directory.

    Returns (problems, values) where values holds the quality figures the
    runner reports and the canonical digest of the workload's output.
    """
    problems = []
    q2 = json.loads((out / "surrogate_quality.json").read_text(encoding="utf-8"))
    values = {"q2_min": min(q2["q2_length"], q2["q2_depth"]),
              "digest": _canonical(out / wl.canonical)}
    if values["q2_min"] < Q2_MIN:
        problems.append(f"Q2 {values['q2_min']:.4f} < {Q2_MIN}")
    if wl.stage == "run-all":
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        val = report["validation"]
        prior, post = val["prior_nominal"], val["posterior_mean"]
        pl, pd = prior["average_length_error_mm"], prior["average_depth_error_mm"]
        ql, qd = post["average_length_error_mm"], post["average_depth_error_mm"]
        values["ess_min"] = min(report["posterior"]["ess"])
        values["post_err_mm"] = (ql + qd) / 2.0
        if wl.full_checks:
            if not (ql <= 0.75 * pl and qd <= 1.10 * pd):
                problems.append(f"no calibration improvement: length {pl:.4f} -> "
                                f"{ql:.4f} mm, depth {pd:.4f} -> {qd:.4f} mm")
            sens = report["sensitivity"]
            ia = sens["parameters"].index("alpha")
            for col in ("sobol_total_length", "sobol_total_depth"):
                if max(range(len(sens[col])), key=sens[col].__getitem__) != ia:
                    problems.append(f"alpha does not have the largest {col}")
    return problems, values


class DigestStore:
    """Canonical-output digests per (workload, seed, code), kept across runs
    in one checkout so a rerun of a seed must reproduce the first run."""

    def __init__(self, path: Path, code: str):
        self.path, self.code = path, code
        try:
            self.doc = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            self.doc = {}

    def check(self, workload: str, seed: int, digest: str) -> bool:
        """Record ``digest``; False if an earlier run stored another one."""
        key = f"{workload}:{seed}:{self.code}"
        if self.doc.setdefault(key, digest) != digest:
            return False
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.doc, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
        return True


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    t_run = time.monotonic()
    store = DigestStore(WORK / "digests.json", _code_digest())
    # RunConfig seeds of this run: --seed itself, or several derived from it
    seeds = [seed * wl.seeds_per_run + j for j in range(wl.seeds_per_run)]
    counter = itertools.count()

    def child(mode: str, s: int, trace: int = 0) -> tuple[dict, Path]:
        i = next(counter)
        out = work / f"out{i}"
        timeout = RUN_LIMIT_S - (time.monotonic() - t_run)
        return _child(mode, wl, s, out, work / f"result{i}.json", timeout,
                      trace), out

    # one round: every seed once; when tracing, every seed traced plus one
    # untraced iteration of the first seed, for the tracing overhead
    plan = [(s, 1 if trace else 0) for s in seeds] + ([(seeds[0], 0)] if trace else [])
    probes = max(0, SETUP_SAMPLES - len(plan))
    setup = [child("setup", seeds[0])[0]["setup_s"] for _ in range(probes)]
    untraced, traced = [], []
    attempted = failed = 0
    t0 = time.monotonic()
    longest = 0.0
    while True:
        t_round = time.monotonic()
        for s, mode in plan:
            attempted += 1
            try:
                res, out = child("run", s, mode)
                problems, vals = check_outputs(wl, out)
                shutil.rmtree(out)
                if not store.check(wl.name, s, vals["digest"]):
                    problems.append("canonical output differs from an "
                                    "earlier iteration of this seed")
            except (ChildError, OSError, KeyError, ValueError) as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                print(f"iteration {attempted} (seed {s}) failed: "
                      + "; ".join(problems), file=sys.stderr)
                continue
            res.update(vals, seed=s)
            print(f"iteration {attempted} (seed {s}, trace {mode}): "
                  f"setup {res['setup_s']:.3f} s, wall {res['wall_s']:.3f} s, "
                  f"cpu {res['cpu_s']:.3f} s", file=sys.stderr)
            (traced if mode else untraced).append(res)
            setup.append(res["setup_s"])
        now = time.monotonic()
        longest = max(longest, now - t_round)
        if now + longest - t0 > seconds or now + longest - t_run > RUN_LIMIT_S:
            break

    def med(rows, key):
        return _median([r.get(key, 0.0) for r in rows])

    metrics: dict[str, tuple[float, str]] = {}
    if untraced and not trace:
        metrics["setup_s"] = (_median(setup), "s")
        metrics["wall_s"] = (med(untraced, "wall_s"), "s")
        metrics["cpu_s"] = (med(untraced, "cpu_s"), "s")
        metrics["peak_rss_mb"] = (med(untraced, "peak_rss_mb"), "MB")
        metrics["q2_min"] = (med(untraced, "q2_min"), "1")
    elif untraced and traced:
        per_run = [layer_metrics(r["spans"]) for r in traced]
        for key, (_, unit) in per_run[0].items():
            metrics[key] = (_median([m[key][0] for m in per_run]), unit)
        first = [r for r in traced if r["seed"] == seeds[0]]
        wall = med(untraced, "wall_s")
        metrics["pipeline.artifact_mb"] = (med(traced, "artifact_bytes") / 1e6, "MB")
        metrics["inference.ess_min"] = (med(traced, "ess_min"), "count")
        metrics["inference.ess_per_s"] = (med(untraced, "ess_min") / wall, "1/s")
        metrics["validate.post_err_mm"] = (med(traced, "post_err_mm"), "mm")
        metrics["trace.overhead_s"] = (med(first, "wall_s") - wall, "s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "meltcal" / "pipeline.py").is_file():
        print(f"error: no meltcal sources under {ROOT / 'src'}; run from a "
              "meltcal checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["attempted"] > result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
