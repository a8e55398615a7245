"""Gaussian-process surrogate per output (length, depth).

Anisotropic squared-exponential kernel, zero mean on standardized targets,
hyperparameters by multi-start maximization of the log marginal likelihood
with analytic gradients, evaluated on the packed squared differences of
each training pair, a (d, N(N-1)/2) array with one row per input.  K^-1
comes from the kernel's Cholesky factor: one dpotri call up to
``KINV_SPLIT_ROWS`` rows, above them the factor inverted by recursive
halving into dtrtri blocks joined by dtrmm, then dlauum.  The predictive
variance is the code-uncertainty term of the calibration likelihood.
Leave-one-out predictions come from the closed-form identity on the
factorized kernel matrix.  Importing this module imports ``blas``,
which pins the process to one BLAS thread, so fits, reloads, LOO,
conditioning and predictions do not depend on the BLAS thread count.

A fit's L-BFGS starts run on ``FIT_WORKERS`` threads.  The
likelihood calls LAPACK and BLAS through scipy's ``cython_lapack`` and
``cython_blas`` function pointers with ctypes, which releases the GIL, so
two starts factor their kernel matrices at once.  Each start allocates
its likelihood buffers once and reuses them across its calls, and the
best start is picked in start order, so the fitted GP does not depend on
the number of threads or on their scheduling; the threads are joined
before ``fit_gp`` returns.
A fit holds the packed pair differences, one set of buffers per running
start and, once the starts are done, the N x N kernel and its factor.
"""

from __future__ import annotations

import ctypes
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import (cho_solve, cholesky, cython_blas, cython_lapack,
                          solve_triangular)
from scipy.optimize import minimize

from . import blas  # noqa: F401 - pins the process to one BLAS thread
from .doe import TrainingSet, latin_hypercube
from .domain import PARAM_NAMES, RandomStream

__all__ = [
    "IllConditionedError",
    "GpSurrogate",
    "ConditionedGp",
    "fit_gp",
    "loocv_q2",
    "save_gp",
    "load_gp",
]

JITTER_FLOOR = 1e-10
JITTER_CEILING = 1e-4
LENGTHSCALE_BOUNDS = (1e-3, 1e3)
N_STARTS = 8
# fit_gp runs its L-BFGS starts on this many threads
FIT_WORKERS = 2
GP_FORMAT = 1
# ConditionedGp.predict pads its kernel rows to a multiple of this many rows:
# the M-unroll of the dgemm kernel of OpenBLAS for SkylakeX.
PAD_ROWS = 16
# _se_kernel forms its scaled input differences this many rows at a time
KERNEL_BLOCK_ROWS = 16
# The likelihood's K^-1 is one dpotri call up to this many rows.  Above, the
# factor is inverted by recursive halving into blocks of at most half as
# many rows: OpenBLAS's dtrtri, which dpotri calls, runs at a third of
# dpotrf's speed above about 100 rows.  The split adds calls that each
# release and retake the GIL, and at 130 rows on two fit threads those
# calls are too short to pay for that.
KINV_SPLIT_ROWS = 200


class IllConditionedError(np.linalg.LinAlgError):
    """Kernel factorization failed even after jitter escalation."""


def _se_kernel(x1: np.ndarray, x2: np.ndarray, sf2: float,
               ell: np.ndarray) -> np.ndarray:
    """sf2 exp(-|x1_i - x2_j|^2 / 2 ell^2), built ``KERNEL_BLOCK_ROWS`` rows
    of x1 at a time: the scaled differences are a (block, N, d) tensor, not
    an (n1, N, d) one.  Each entry is reduced over the inputs on its own,
    so the blocks round as the one-shot tensor would."""
    k = np.empty((len(x1), len(x2)))
    buf = np.empty((min(len(x1), KERNEL_BLOCK_ROWS), *x2.shape))
    for i in range(0, len(x1), KERNEL_BLOCK_ROWS):
        rows = x1[i:i + KERNEL_BLOCK_ROWS]
        d = buf[:len(rows)]
        np.subtract(rows[:, None, :], x2[None, :, :], out=d)
        d /= ell
        np.einsum("ijk,ijk->ij", d, d, out=k[i:i + KERNEL_BLOCK_ROWS])
    k *= -0.5
    np.exp(k, out=k)
    k *= sf2
    return k


@dataclass(frozen=True)
class GpSurrogate:
    """Trained single-output GP in standardized coordinates."""

    x: np.ndarray            # (N, d) standardized inputs
    y_std: np.ndarray        # (N,) standardized targets
    sf2: float               # signal variance
    ell: np.ndarray          # (d,) length scales
    sn2: float               # noise variance (>= jitter floor)
    chol: np.ndarray         # lower-triangular factor of K + sn2 I
    weights: np.ndarray      # (K + sn2 I)^{-1} y_std
    lo: np.ndarray           # (d,) raw inputs standardized to 0
    hi: np.ndarray           # (d,) raw inputs standardized to 1
    y_mean: float            # target destandardization (meters)
    y_scale: float
    output: str              # "length" or "depth"

    def predict(self, x_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predictive mean (m) and variance (m^2) at raw-unit 11-vectors.

        Accepts a single vector or an (n, 11) matrix.  Each row's mean is
        bitwise independent of the other rows in the batch: of their order,
        their number, and the row's position among them.
        """
        x_raw = np.atleast_2d(np.asarray(x_raw, dtype=float))
        if not np.all(np.isfinite(x_raw)):
            raise ValueError("prediction inputs must be finite")
        xs = (x_raw - self.lo) / (self.hi - self.lo)
        # The SE kernel factors over inputs: the design block's factor
        # (with sf2) times the parameters'.  ConditionedGp stores the first
        # factor, so its kernel rows and means are bitwise these.
        m = max(xs.shape[1] - len(PARAM_NAMES), 0)
        k_star = (_se_kernel(xs[:, :m], self.x[:, :m], self.sf2, self.ell[:m])
                  * _se_kernel(xs[:, m:], self.x[:, m:], 1.0, self.ell[m:]))
        # A fixed-order per-row dot, not a BLAS matrix-vector product: gemv
        # rounds a row by where it sits in the batch, and the large weights
        # of a near-singular kernel matrix magnify that into the mean.
        mean_std = np.einsum("ij,j->i", k_star, self.weights)
        v = solve_triangular(self.chol, k_star.T, lower=True)
        var_std = np.maximum(self.sf2 - np.einsum("ij,ij->j", v, v), 0.0)
        mean = self.y_mean + self.y_scale * mean_std
        var = self.y_scale**2 * var_std
        return mean, var


@dataclass(frozen=True)
class ConditionedGp:
    """GpSurrogates with their leading (design) inputs held at fixed rows.

    Sensitivity analysis and calibration vary theta only, at the dataset's
    fixed design rows d_c.  The SE kernel factors over inputs, so
    everything that depends on the design rows alone is computed once here
    instead of on every call: the design factor of each kernel row, the
    inverse Cholesky factor, and the condition-averaged weights.  The GPs
    share their numbers of inputs and training points, so these arrays
    stack along a leading output axis and one numpy call serves every
    output; SA builds one output at a time, the calibration likelihood
    both.  Every per-call reduction is elementwise, a fixed-order per-row
    einsum or one matrix product per output over the kernel rows padded
    with zero rows to a multiple of ``PAD_ROWS``, and the averaged weights
    are exact sums, so an output's result does not depend on the other
    outputs, on the batch it comes in or on the order of the fixed rows.
    """

    kd: np.ndarray           # (O, C, N) sf2 Kd(d_c, x_j), the design factors
    x_theta: np.ndarray      # (O, N, p) theta part of each gp.x
    ell_theta: np.ndarray    # (O, 1, p) theta length scales
    lo: np.ndarray           # (O, p) theta map: raw theta -> [0, 1]
    span: np.ndarray         # (O, p)
    sf2: np.ndarray          # (O, 1)
    weights: np.ndarray      # (O, N)
    v: np.ndarray            # (O, N) weights * mean over rows of kd
    linv_t: np.ndarray       # (O, N, N) transpose of the inverse of gp.chol
    y_mean: np.ndarray       # (O, 1)
    y_scale: np.ndarray      # (O, 1)
    y_scale2: np.ndarray     # (O, 1) y_scale**2, as predict squares it

    @classmethod
    def build(cls, gps: Sequence[GpSurrogate],
              designs: np.ndarray) -> "ConditionedGp":
        """Condition each of ``gps`` on the raw (C, m) design rows ``designs``."""
        if len({gp.x.shape for gp in gps}) != 1:
            raise ValueError("conditioned GPs need the same numbers of inputs "
                             "and training points")
        designs = np.atleast_2d(np.asarray(designs, dtype=float))
        m = designs.shape[1]
        kd, v, linv_t = [], [], []
        for gp in gps:
            ds = (designs - gp.lo[:m]) / (gp.hi[:m] - gp.lo[:m])
            # k = sf2 Kd(d_c) Ktheta(theta), the same factors as gp.predict's.
            # Averaged over the rows, the mean is then Ktheta . v.  Exact
            # column sums keep v independent of the order of the rows.
            kd.append(_se_kernel(ds, gp.x[:, :m], gp.sf2, gp.ell[:m]))
            kd_mean = np.array([math.fsum(col) for col in kd[-1].T]) / len(designs)
            v.append(gp.weights * kd_mean)
            linv_t.append(solve_triangular(gp.chol, np.eye(len(gp.x)), lower=True).T)
        return cls(kd=np.stack(kd), x_theta=np.stack([gp.x[:, m:] for gp in gps]),
                   ell_theta=np.stack([gp.ell[None, m:] for gp in gps]),
                   lo=np.stack([gp.lo[m:] for gp in gps]),
                   span=np.stack([gp.hi[m:] - gp.lo[m:] for gp in gps]),
                   sf2=np.array([[gp.sf2] for gp in gps]),
                   weights=np.stack([gp.weights for gp in gps]), v=np.stack(v),
                   linv_t=np.stack(linv_t),
                   y_mean=np.array([[gp.y_mean] for gp in gps]),
                   y_scale=np.array([[gp.y_scale] for gp in gps]),
                   y_scale2=np.array([[gp.y_scale**2] for gp in gps]))

    def _theta_factor(self, thetas: np.ndarray) -> np.ndarray:
        """(..., O, N) theta factors Ktheta(theta, x_j) at a theta (p,) or
        at each row of a batch (n, p)."""
        thetas = np.asarray(thetas, dtype=float)
        if not np.isfinite(thetas).all():
            raise ValueError("prediction inputs must be finite")
        ts = (thetas[..., None, :] - self.lo) / self.span
        d = ts[..., None, :] - self.x_theta
        d /= self.ell_theta  # in place: an SA batch makes d ~8 MB per 1k rows
        return np.exp(-0.5 * np.einsum("...k,...k->...", d, d))

    def averaged_mean(self, thetas: np.ndarray) -> np.ndarray:
        """(O, n) predictive means (m) averaged over the fixed rows, per
        theta in an (n, p) batch or a single theta.

        Equals the mean over rows c of ``gp.predict([d_c, theta])[0]`` up
        to rounding; no kernel row and no variance is formed.
        """
        k_theta = self._theta_factor(np.atleast_2d(thetas))
        mean_std = np.einsum("noj,oj->on", k_theta, self.v)
        return self.y_mean + self.y_scale * mean_std

    def _kernel_rows(self, theta: np.ndarray) -> np.ndarray:
        """(O, C, N) kernel rows between [d_c, theta] and the training inputs."""
        # one theta factor per training point serves every design row
        return self.kd * self._theta_factor(theta)[:, None]

    def predict(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(O, C) predictive means (m) and variances (m^2) at [d_c, theta].

        Each output's kernel row and mean are bitwise those of its
        ``gp.predict`` on the stacked rows; the variance agrees with it up
        to rounding, and a row's variance is bitwise the same whatever the
        other fixed rows are, their number and their order.
        """
        k_star = self._kernel_rows(theta)
        # sf2 - |L^-1 k*|^2 cancels to ~1e-7 of sf2 in the prior box.  With
        # the explicit L^-1 the variance is up to ~6e-8 relative from a
        # long-double forward substitution, against ~6e-9 for gp.predict's
        # triangular solve; that is a few 1e-14 of the prior variance.
        # One (C', N) x (N, N) product per output, C' being C padded with
        # zero rows to a multiple of PAD_ROWS: the GEMM kernel then takes
        # every row through the same full-width path, so a row's rounding
        # does not depend on its place in the batch or on the batch's size.
        # Unpadded, a short or ragged batch takes other paths and rounds
        # its rows differently.
        n_out, rows, n = k_star.shape
        padded = np.zeros((n_out, -(-rows // PAD_ROWS) * PAD_ROWS, n))
        padded[:, :rows] = k_star
        w = np.matmul(padded, self.linv_t)[:, :rows]
        var_std = np.maximum(self.sf2 - np.einsum("oij,oij->oi", w, w), 0.0)
        mean_std = np.einsum("oij,oj->oi", k_star, self.weights)
        return self.y_mean + self.y_scale * mean_std, self.y_scale2 * var_std


def _chol_with_escalation(k: np.ndarray, sn2: float) -> tuple[np.ndarray, float]:
    """The lower Cholesky factor of ``k`` plus jitter on its diagonal, the
    jitter escalated tenfold from ``max(sn2, JITTER_FLOOR)`` until the sum
    factors; and that jitter.  Each attempt factors one Fortran-order copy
    of ``k`` in place."""
    jitter = max(sn2, JITTER_FLOOR)
    diagonal = np.diag_indices(k.shape[0])
    while True:
        a = np.array(k, order="F")
        a[diagonal] += jitter
        try:
            return cholesky(a, lower=True, overwrite_a=True), jitter
        except np.linalg.LinAlgError:
            if jitter >= JITTER_CEILING:
                raise IllConditionedError(
                    f"kernel matrix not positive definite at jitter {jitter:g}")
            jitter = min(jitter * 10.0, JITTER_CEILING)


def _factored_gp(x: np.ndarray, y: np.ndarray, sf2: float, ell: np.ndarray,
                 sn2: float, lo: np.ndarray, hi: np.ndarray, y_mean: float,
                 y_scale: float, output: str) -> GpSurrogate:
    """The GP with these hyperparameters, factored on its training data."""
    low, jitter = _chol_with_escalation(_se_kernel(x, x, sf2, ell), sn2)
    return GpSurrogate(x=x, y_std=y, sf2=sf2, ell=ell, sn2=float(jitter), chol=low,
                       weights=cho_solve((low, True), y), lo=lo, hi=hi,
                       y_mean=y_mean, y_scale=y_scale, output=output)


@dataclass(frozen=True)
class _PairDistances:
    """The squared input differences of each training pair i < j, once.

    The SE kernel is symmetric with the diagonal sf2, so the marginal
    likelihood and its gradient need each unordered pair only.  ``sq``
    holds one row per input, so the likelihood's two passes over it, the
    kernel's weighted sum over the inputs and the gradient's sum over the
    pairs, each read it row by row.
    """

    rows: np.ndarray         # (M,) i of each pair, M = N(N-1)/2
    cols: np.ndarray         # (M,) j of each pair
    flat: np.ndarray         # (M,) i*N + j, the pair's place in a C-order N x N
    sq: np.ndarray           # (d, M) (x_i - x_j)**2, one row per input

    @classmethod
    def build(cls, x: np.ndarray) -> "_PairDistances":
        """The pairs of ``x``'s rows, ``sq`` filled one input row at a
        time, so no second (d, M) array is formed."""
        n, d = x.shape
        rows, cols = np.triu_indices(n, k=1)
        sq = np.empty((d, len(rows)))
        for k in range(d):
            np.subtract(x[:, k].take(rows), x[:, k].take(cols), out=sq[k])
        np.square(sq, out=sq)
        return cls(rows=rows, cols=cols, flat=rows * n + cols, sq=sq)


def _require_finite(values: np.ndarray) -> None:
    """The finiteness check of scipy's ``check_finite``."""
    if not np.isfinite(values).all():
        raise ValueError("array must not contain infs or NaNs")


_capsule_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_name.restype, _capsule_name.argtypes = ctypes.c_char_p, [ctypes.py_object]
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.restype, _capsule_pointer.argtypes = (
    ctypes.c_void_p, [ctypes.py_object, ctypes.c_char_p])
_C_TYPES = {"char *": ctypes.c_char_p, "int *": ctypes.POINTER(ctypes.c_int),
            "double *": ctypes.c_void_p}


def _cython_routine(module, name: str, *args: str):
    """scipy's ``<module>.<name>``, of C argument types ``args``, as a
    ctypes function; ``module`` is ``cython_lapack`` or ``cython_blas``.

    A ctypes foreign call releases the GIL, which the f2py wrappers of
    ``scipy.linalg.lapack`` and ``scipy.linalg.blas`` hold; these are the
    same routines, so the bits are the same.  The capsule's name is the
    routine's C signature, in which ``double *`` is spelled as the module's
    own typedef (``__pyx_t_5scipy_6linalg_11cython_blas_d *``), so a missing
    routine or another signature raises here, at import.
    """
    double_p = "__pyx_t_" + "".join(
        f"{len(part)}{part}_" for part in module.__name__.split(".")) + "d *"
    capsule = module.__pyx_capi__.get(name)
    signature = f"void ({', '.join(args)})".replace("double *", double_p).encode()
    if capsule is None or _capsule_name(capsule) != signature:
        raise ImportError(f"{module.__name__}.{name} is not {signature.decode()}")
    return ctypes.CFUNCTYPE(None, *(_C_TYPES[a] for a in args))(
        _capsule_pointer(capsule, signature))


_POTRF = _cython_routine(cython_lapack, "dpotrf", "char *", "int *", "double *",
                         "int *", "int *")
_POTRS = _cython_routine(cython_lapack, "dpotrs", "char *", "int *", "int *",
                         "double *", "int *", "double *", "int *", "int *")
_POTRI = _cython_routine(cython_lapack, "dpotri", "char *", "int *", "double *",
                         "int *", "int *")
_TRTRI = _cython_routine(cython_lapack, "dtrtri", "char *", "char *", "int *",
                         "double *", "int *", "int *")
_LAUUM = _cython_routine(cython_lapack, "dlauum", "char *", "int *", "double *",
                         "int *", "int *")
_TRMM = _cython_routine(cython_blas, "dtrmm", "char *", "char *", "char *", "char *",
                        "int *", "int *", "double *", "double *", "int *",
                        "double *", "int *")
_ONE, _MINUS_ONE = ctypes.c_double(1.0), ctypes.c_double(-1.0)


def _address(a: np.ndarray, shape: tuple[int, ...]) -> int:
    """The data address of a C-contiguous float64 array of ``shape``, for a
    LAPACK call."""
    if a.dtype != np.float64 or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"LAPACK buffers must be C-contiguous float64 of "
                         f"shape {shape}")
    return a.ctypes.data


# The entries below take an (n, n) C-order buffer whose transpose is the
# Fortran-order matrix LAPACK works on, with uplo 'L': they read and write
# only the upper triangle of the buffer.  Each returns LAPACK's info.

def _dpotrf(k_t: np.ndarray) -> int:
    """Cholesky factor of ``k_t.T``, in place."""
    n, info = ctypes.c_int(len(k_t)), ctypes.c_int()
    _POTRF(b"L", n, _address(k_t, (n.value, n.value)), n, info)
    return info.value


def _dpotrs(low_t: np.ndarray, b: np.ndarray) -> int:
    """Solve, in place of the (n,) ``b``, with the factor ``low_t.T``."""
    n, one, info = ctypes.c_int(len(low_t)), ctypes.c_int(1), ctypes.c_int()
    _POTRS(b"L", n, one, _address(low_t, (n.value, n.value)), n,
           _address(b, (n.value,)), n, info)
    return info.value


def _dpotri(low_t: np.ndarray) -> int:
    """Inverse of the matrix whose Cholesky factor is ``low_t.T``, in place.

    Up to ``KINV_SPLIT_ROWS`` rows this is one dpotri call, which inverts
    the factor with dtrtri and multiplies the inverse by its transpose with
    dlauum.  Above, the factor's inverse comes from ``_trtri_halves``
    instead, then dlauum.
    """
    n, info = len(low_t), ctypes.c_int()
    address = _address(low_t, (n, n))
    if n <= KINV_SPLIT_ROWS:
        _POTRI(b"L", ctypes.c_int(n), address, ctypes.c_int(n), info)
        return info.value
    failed = _trtri_halves(address, n, 0, n)
    if failed:
        return failed
    _LAUUM(b"L", ctypes.c_int(n), address, ctypes.c_int(n), info)
    return info.value


def _trtri_halves(address: int, n: int, lo: int, hi: int) -> int:
    """Invert, in place, the diagonal block of rows and columns ``lo:hi``
    of the lower-triangular (n, n) Fortran-order matrix at ``address``.

    A block of at most ``KINV_SPLIT_ROWS // 2`` rows is one dtrtri call.
    A larger one is split into halves, each inverted the same way, which
    two dtrmm calls join: [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1,
    C^-1]].  Returns 0, or as dtrtri does the 1-based row of the first
    zero on the diagonal.
    """
    lda, info = ctypes.c_int(n), ctypes.c_int()
    if hi - lo <= KINV_SPLIT_ROWS // 2:
        _TRTRI(b"L", b"N", ctypes.c_int(hi - lo), address + 8 * (lo * n + lo),
               lda, info)
        return info.value and lo + info.value
    mid = (lo + hi) // 2
    failed = _trtri_halves(address, n, lo, mid) or _trtri_halves(address, n, mid, hi)
    if failed:
        return failed
    a, b, c = (address + 8 * (col * n + row)
               for row, col in ((lo, lo), (mid, lo), (mid, mid)))
    rows, cols = ctypes.c_int(hi - mid), ctypes.c_int(mid - lo)
    # B := B A^-1, then B := -C^-1 B
    _TRMM(b"R", b"L", b"N", b"N", rows, cols, ctypes.addressof(_ONE), a, lda, b, lda)
    _TRMM(b"L", b"L", b"N", b"N", rows, cols, ctypes.addressof(_MINUS_ONE), c, lda,
          b, lda)
    return 0


class _Likelihood:
    """The negative log marginal likelihood and its gradient in the log
    hyperparameters (log ell_1..d, log sf2, log sn2), as one L-BFGS start
    calls it.

    The buffers are allocated once, here, and every call writes into them,
    so a call allocates no (M,) or (N, N) array.  Each start makes its own,
    so starts on other threads share none.  A call writes every buffer
    entry before it reads it, so its result does not depend on what an
    earlier call, failed or not, left in the buffers.
    """

    def __init__(self, y: np.ndarray, pairs: _PairDistances):
        _require_finite(y)
        n, m = y.size, len(pairs.flat)
        self.y, self.pairs = y, pairs
        # The LAPACK entries read and write only the upper triangle of this
        # C-order buffer, the lower triangle of the matrix k_t.T.  The other
        # triangle stays zero, so the factor needs no clean pass.
        self.k_t = np.zeros((n, n))
        self.k_p = np.empty(m)       # kernel per pair
        self.aa = np.empty(m)        # alpha_i alpha_j per pair
        self.w = np.empty(m)         # gradient weight per pair
        self.alpha = np.empty(n)

    def __call__(self, log_params: np.ndarray) -> tuple[float, np.ndarray]:
        y, pairs, k_t, k_p, aa, w, alpha = (
            self.y, self.pairs, self.k_t, self.k_p, self.aa, self.w, self.alpha)
        d = pairs.sq.shape[0]
        n = y.size
        log_ell, log_sf2, log_sn2 = log_params[:d], log_params[d], log_params[d + 1]
        ell2 = np.exp(2.0 * log_ell)
        sf2, sn2 = np.exp(log_sf2), np.exp(log_sn2)
        # (M,) kernel per pair; the factor -0.5 is a power of two, so folding
        # it into the weights rounds exactly as scaling the sum would
        np.matmul(-0.5 / ell2, pairs.sq, out=k_p)
        np.exp(k_p, out=k_p)
        k_p *= sf2
        _require_finite(k_p)
        _require_finite(sf2 + sn2)
        flat = k_t.ravel()
        flat[pairs.flat] = k_p
        flat[::n + 1] = sf2 + sn2
        if _dpotrf(k_t) != 0:
            return 1e12, np.zeros_like(log_params)
        alpha[:] = y
        _dpotrs(k_t, alpha)
        nlml = (0.5 * y @ alpha + np.log(np.diag(k_t)).sum()
                + 0.5 * n * np.log(2.0 * np.pi))
        if _dpotri(k_t) != 0:
            return 1e12, np.zeros_like(log_params)
        # dNLML/dh = 0.5 tr((K^-1 - aa^T) dK/dh), each off-diagonal pair
        # twice.  mode="clip" takes straight into ``out``; "raise" would go
        # through a hidden (M,) copy.
        alpha.take(pairs.rows, out=aa, mode="clip")
        alpha.take(pairs.cols, out=w, mode="clip")
        aa *= w
        k_t.take(pairs.flat, out=w, mode="clip")
        w -= aa
        w *= k_p
        m_diag = k_t.diagonal().sum() - alpha @ alpha       # tr(K^-1 - aa^T)
        grad = np.empty_like(log_params)
        grad[:d] = (pairs.sq @ w) / ell2                    # d/dlog ell_k
        grad[d] = w.sum() + 0.5 * sf2 * m_diag              # d/dlog sf2
        grad[d + 1] = 0.5 * sn2 * m_diag                    # d/dlog sn2
        return float(nlml), grad


def fit_gp(ts: TrainingSet, output: str, stream: RandomStream) -> GpSurrogate:
    """Train a GP on one output with 8 multi-started local optimizations,
    run on ``FIT_WORKERS`` threads."""
    if output not in ("length", "depth"):
        raise ValueError("output must be 'length' or 'depth'")
    if ts.n < 10:
        raise ValueError(f"need at least 10 training rows, got {ts.n}")
    x = ts.inputs_std()
    rounded = np.round(x, 12)
    if len({tuple(row) for row in rounded}) != ts.n:
        raise ValueError("duplicate input rows in training set")
    y_raw = ts.outputs[:, 0 if output == "length" else 1]
    y_mean = float(y_raw.mean())
    y_scale = float(y_raw.std(ddof=0))
    if y_scale == 0.0:
        y_scale = 1.0  # constant targets: GP collapses to the constant
    y = (y_raw - y_mean) / y_scale

    d = x.shape[1]
    pairs = _PairDistances.build(x)
    log_bounds = ([(np.log(LENGTHSCALE_BOUNDS[0]), np.log(LENGTHSCALE_BOUNDS[1]))] * d
                  + [(-10.0, 10.0), (np.log(JITTER_FLOOR), 0.0)])
    starts = latin_hypercube(N_STARTS, d + 2, stream) * 6.0 - 3.0
    starts[:, d + 1] = -3.0 - 6.0 * ((starts[:, d + 1] + 3.0) / 6.0)  # noise in [-9, -3]
    starts = np.clip(starts, *zip(*log_bounds))

    def local_fit(start: np.ndarray):
        return minimize(_Likelihood(y, pairs), start, jac=True,
                        method="L-BFGS-B", bounds=log_bounds)

    # Each start is one L-BFGS-B run on its own buffers, and the best is
    # picked in start order, so the fit does not depend on the number of
    # workers or on their scheduling.  Leaving the block joins the workers.
    with ThreadPoolExecutor(FIT_WORKERS) as pool:
        results = list(pool.map(local_fit, starts))
    del pairs  # the final factorization below need not hold them too
    best = None
    for res in results:
        cand_sn2 = np.exp(res.x[d + 1])
        if (best is None or res.fun < best[0] - 1e-9
                or (abs(res.fun - best[0]) <= 1e-9 and cand_sn2 < best[2])):
            best = (res.fun, res.x, cand_sn2)
    log_opt = best[1]
    ell = np.exp(log_opt[:d])
    sf2 = float(np.exp(log_opt[d]))
    sn2 = float(np.exp(log_opt[d + 1]))
    return _factored_gp(x, y, sf2, ell, sn2, ts.lo, ts.hi, y_mean, y_scale, output)


def loocv_q2(gp: GpSurrogate) -> tuple[float, np.ndarray]:
    """Leave-one-out Q2 and per-point residuals (standardized units).

    Uses the closed-form identity mu_{-i} = y_i - [K^-1 y]_i / [K^-1]_ii
    with hyperparameters frozen.
    """
    n = gp.y_std.size
    if n < 3:
        raise ValueError("need at least 3 training points for LOOCV")
    var_y = ((gp.y_std - gp.y_std.mean()) ** 2).sum()
    if var_y == 0.0:
        raise ValueError("Q2 undefined: zero target variance")
    kinv = cho_solve((gp.chol, True), np.eye(n))
    residuals = kinv @ gp.y_std / np.diag(kinv)
    q2 = 1.0 - (residuals**2).sum() / var_y
    return float(q2), residuals


def save_gp(gp: GpSurrogate, path: str | Path) -> None:
    doc = {
        "gp_format": GP_FORMAT,
        "output": gp.output,
        "x": gp.x.tolist(),
        "y_std": gp.y_std.tolist(),
        "sf2": gp.sf2,
        "ell": gp.ell.tolist(),
        "sn2": gp.sn2,
        "input_map": {"lo": gp.lo.tolist(), "hi": gp.hi.tolist()},
        "y_mean": gp.y_mean,
        "y_scale": gp.y_scale,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_gp(path: str | Path) -> GpSurrogate:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("gp_format") != GP_FORMAT:
        raise ValueError(f"unsupported gp_format {doc.get('gp_format')!r}")
    lo, hi = (np.array(doc["input_map"][key]) for key in ("lo", "hi"))
    return _factored_gp(np.array(doc["x"]), np.array(doc["y_std"]), doc["sf2"],
                        np.array(doc["ell"]), doc["sn2"], lo, hi, doc["y_mean"],
                        doc["y_scale"], doc["output"])
