"""Acceptance suite: one test per criterion, one printed verdict line each.

The heavyweight fixtures (full calibration runs at production settings) are
session scoped and shared across criteria.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from fd_oracle import solve_fd
from meltcal.doe import build_training_set
from meltcal.domain import (
    ExperimentRow,
    ExperimentalDataset,
    PARAM_NAMES,
    RandomStream,
    bundled_dataset_path,
    load_dataset,
    prior_from_table2,
    write_dataset,
)
from meltcal.forward import ReducedModelConfig, evaluate_reduced, reduced_model
from meltcal.inference import adaptive_metropolis, burn_thin, effective_sample_size
from meltcal.pipeline import RunConfig, run_calibration
from meltcal.sensitivity import sobol_indices
from meltcal.surrogate import fit_gp, loocv_q2

PRIOR = prior_from_table2()
NOMINAL = PRIOR.nominal_params()


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def dataset():
    return load_dataset(bundled_dataset_path())


@pytest.fixture(scope="session")
def bundled_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundled")
    cfg = RunConfig(out_dir=str(out), seed=0)
    return cfg, run_calibration(cfg)


@pytest.fixture(scope="session")
def synthetic_run(tmp_path_factory):
    """Data generated from the reduced model at a known truth + 2% noise."""
    out = tmp_path_factory.mktemp("synthetic")
    truth = dataclasses.replace(NOMINAL, alpha=0.2)
    model = reduced_model()
    base = load_dataset(bundled_dataset_path())
    rng = RandomStream(123).generator()
    rows = []
    for r in base:
        size = model(r.design, truth)
        rows.append(ExperimentRow(
            index=r.index, design=r.design,
            length=size.length * (1.0 + 0.02 * rng.standard_normal()),
            depth=size.depth * (1.0 + 0.02 * rng.standard_normal())))
    data_path = out / "synthetic.csv"
    write_dataset(ExperimentalDataset(rows=tuple(rows)), data_path)
    cfg = RunConfig(dataset_path=str(data_path), out_dir=str(out), seed=0)
    return truth, run_calibration(cfg)


ISHIGAMI_S = np.array([0.31390519, 0.44241114, 0.0])
ISHIGAMI_T = np.array([0.55758886, 0.44241114, 0.24368366])


def test_criterion_1_sobol_ishigami_oracle(capsys):
    def ishigami(x):
        return (np.sin(x[:, 0]) + 7.0 * np.sin(x[:, 1]) ** 2
                + 0.1 * x[:, 2] ** 4 * np.sin(x[:, 0]))

    start = time.perf_counter()
    res = sobol_indices(ishigami, np.full(3, -np.pi), np.full(3, np.pi),
                        2**15, RandomStream(1))
    elapsed = time.perf_counter() - start
    d_s = np.abs(res.main - ISHIGAMI_S).max()
    d_t = np.abs(res.total - ISHIGAMI_T).max()
    ok = d_s < 0.02 and d_t < 0.02 and elapsed < 60.0
    _verdict(capsys, 1, ok,
             f"Ishigami max |S err| {d_s:.4f}, max |T err| {d_t:.4f}, "
             f"{elapsed:.1f} s")


def test_criterion_2_mcmc_gaussian_oracle(capsys):
    cov = np.array([[1.0, 0.8], [0.8, 1.0]])
    prec = np.linalg.inv(cov)

    def target(x):
        return -0.5 * float(x @ prec @ x)

    start = time.perf_counter()
    chain = adaptive_metropolis(target, np.zeros(2), 50_000, 1_000,
                                RandomStream(2))
    elapsed = time.perf_counter() - start
    kept = burn_thin(chain, 10_000, 20).samples
    mean_ok = True
    for j in range(2):
        ess = effective_sample_size(kept[:, j])
        se = kept[:, j].std(ddof=1) / np.sqrt(ess)
        mean_ok = mean_ok and abs(kept[:, j].mean()) < 3.0 * se
    emp = np.cov(kept.T, ddof=1)
    cov_ok = np.all(np.abs(emp - cov) / np.abs(cov) < 0.10)
    rate = chain.acceptance_rate(after=1_000)
    ok = mean_ok and cov_ok and 0.1 <= rate <= 0.5 and elapsed < 30.0
    _verdict(capsys, 2, ok,
             f"means ok {mean_ok}, cov within 10% {cov_ok}, "
             f"acceptance {rate:.3f}, {elapsed:.1f} s")


def test_criterion_3_gp_quality(capsys, dataset, bundled_run):
    _, report = bundled_run
    q2_10 = (report["surrogate_q2"]["q2_length"],
             report["surrogate_q2"]["q2_depth"])
    ts20 = build_training_set(dataset, PRIOR, 20, reduced_model(), RandomStream(0))
    q2_20 = (loocv_q2(fit_gp(ts20, "length", RandomStream(1)))[0],
             loocv_q2(fit_gp(ts20, "depth", RandomStream(2)))[0])
    ok = (min(q2_10) >= 0.90
          and all(b >= a - 0.02 for a, b in zip(q2_10, q2_20)))
    _verdict(capsys, 3, ok,
             f"Q2(10/cond) length {q2_10[0]:.4f} depth {q2_10[1]:.4f}; "
             f"Q2(20/cond) length {q2_20[0]:.4f} depth {q2_20[1]:.4f}")


def test_criterion_4_forward_model_oracle(capsys, dataset):
    cfg = ReducedModelConfig()
    worst = 0.0
    for row in dataset:
        fd = solve_fd(row.design, NOMINAL, cells_per_radius=16)
        size = evaluate_reduced(row.design, NOMINAL, cfg=cfg)
        worst = max(worst,
                    abs(size.length - fd.max_length()) / fd.max_length(),
                    abs(size.depth - fd.max_depth()) / fd.max_depth())
    start = time.perf_counter()
    evaluate_reduced(dataset.rows[0].design, NOMINAL, cfg=cfg)
    per_eval = time.perf_counter() - start
    ok = worst < 0.05 and per_eval < 0.050
    _verdict(capsys, 4, ok,
             f"worst FD disagreement {worst:.2%} over 13 conditions, "
             f"single evaluation {per_eval * 1e3:.1f} ms")


def test_criterion_5_synthetic_identifiability(capsys, synthetic_run):
    truth, report = synthetic_run
    post = report["posterior"]
    prior_std = PRIOR.std()
    ia = PARAM_NAMES.index("alpha")
    covered = post["ci_lower"][ia] <= truth.alpha <= post["ci_upper"][ia]
    alpha_tight = post["std"][ia] <= 0.3 * prior_std[ia]
    others = [i for i in range(8) if i != ia]
    wide = sum(post["std"][i] >= 0.6 * prior_std[i] for i in others)
    ok = covered and alpha_tight and wide >= 5
    _verdict(capsys, 5, ok,
             f"alpha CI covers truth {covered}, "
             f"std(alpha)/prior {post['std'][ia] / prior_std[ia]:.3f}, "
             f"{wide}/7 others prior-dominated")


def test_criterion_6_calibration_improvement(capsys, bundled_run):
    _, report = bundled_run
    val = report["validation"]
    pl = val["prior_nominal"]["average_length_error_mm"]
    pd_ = val["prior_nominal"]["average_depth_error_mm"]
    ql = val["posterior_mean"]["average_length_error_mm"]
    qd = val["posterior_mean"]["average_depth_error_mm"]
    ok = ql <= 0.75 * pl and qd <= 1.10 * pd_
    _verdict(capsys, 6, ok,
             f"length error {pl:.3f} -> {ql:.3f} mm (ratio {ql / pl:.2f}), "
             f"depth error {pd_:.3f} -> {qd:.3f} mm (ratio {qd / pd_:.2f})")


def test_criterion_7_sa_dominance(capsys, bundled_run):
    _, report = bundled_run
    sens = report["sensitivity"]
    ia = PARAM_NAMES.index("alpha")
    i_len = int(np.argmax(sens["sobol_total_length"]))
    i_dep = int(np.argmax(sens["sobol_total_depth"]))
    ok = i_len == ia and i_dep == ia
    _verdict(capsys, 7, ok,
             f"largest T_i is {sens['parameters'][i_len]} (length), "
             f"{sens['parameters'][i_dep]} (depth); "
             f"T_alpha {sens['sobol_total_length'][ia]:.3f}/"
             f"{sens['sobol_total_depth'][ia]:.3f}")


def _canonical_report(path: Path) -> str:
    doc = json.loads(path.read_text())
    doc["provenance"].pop("timestamp")
    return json.dumps(doc, sort_keys=True)


def test_criterion_8_determinism(capsys, bundled_run, tmp_path_factory):
    cfg, _ = bundled_run
    out2 = tmp_path_factory.mktemp("rerun")
    cfg2 = dataclasses.replace(cfg, out_dir=str(out2))
    run_calibration(cfg2)
    a = _canonical_report(Path(cfg.out_dir) / "report.json")
    b = _canonical_report(out2 / "report.json")
    ok = a == b
    _verdict(capsys, 8, ok,
             "report.json byte-identical across reruns (timestamps excluded)"
             if ok else "reports differ")


def test_criterion_9_property_suites(capsys):
    """Compact re-run of the named module properties; the full suites live
    in the per-module test files alongside this one."""
    from meltcal.doe import latin_hypercube
    from meltcal.domain import CalibrationParams, in_support
    from meltcal.inference import autocorrelation
    from meltcal.surrogate import _nlml_and_grad, _PairDistances, nlml

    checks = {}

    u = latin_hypercube(37, 4, RandomStream(5))
    checks["stratification"] = all(
        sorted(np.floor(u.values[:, j] * 37).astype(int)) == list(range(37))
        for j in range(4))

    rng = RandomStream(6).generator()
    x = rng.random((10, 2))
    y = np.sin(x.sum(axis=1))
    pairs = _PairDistances.build(x)
    p = rng.uniform(-1.5, 1.5, 4)
    _, grad = _nlml_and_grad(p, x, y, pairs)
    fd = np.array([(nlml(p + h * e, x, y) - nlml(p - h * e, x, y)) / (2 * h)
                   for h in (1e-6,) for e in np.eye(4)])
    checks["gp_gradient"] = np.allclose(grad, fd, rtol=1e-5, atol=1e-7)

    from test_surrogate import make_ts
    xs = np.linspace(0, 1, 12)
    ys = 1e-4 * np.sin(2 * np.pi * xs)
    q2_m = loocv_q2(fit_gp(make_ts(xs, ys), "length", RandomStream(7)))[0]
    q2_mm = loocv_q2(fit_gp(make_ts(xs, 1e3 * ys), "length", RandomStream(7)))[0]
    checks["q2_affine"] = abs(q2_m - q2_mm) < 1e-6

    acf = autocorrelation(RandomStream(8).generator().standard_normal(10_000), 50)
    checks["acf_band"] = np.mean(np.abs(acf[1:]) < 3.0 / np.sqrt(10_000)) >= 0.95

    checks["burn_thin"] = all(
        (steps - burn - 1) // thin + 1
        == len(range(burn, steps, thin))
        for steps in (100, 50_000) for burn in (0, 10) for thin in (1, 20))

    theta = dataclasses.replace(NOMINAL, alpha=0.5)
    shrunk = PRIOR  # full prior already rejects alpha = 0.5
    checks["support_monotone"] = not in_support(theta, shrunk)

    ok = all(checks.values())
    failing = [k for k, v in checks.items() if not v]
    _verdict(capsys, 9, ok,
             "all property checks pass" if ok else f"failing: {failing}")
