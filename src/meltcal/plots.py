"""Dependency-free SVG plot emission.

Every figure is drawn from primitive shapes.  Each but a trace is written
alongside a CSV of its data series, so the results can be re-plotted with
any external tool.  A trace writes none: it plots a column of the states
that the pairs grid's CSV holds.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "parity_plot",
    "trace_plot",
    "acf_plot",
    "pairs_grid",
    "bar_chart",
]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


class _Svg:
    def __init__(self, width: int, height: int):
        self.width, self.height = width, height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, color="#333", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>')

    def polyline(self, xs, ys, color="#1f77b4", width=1.0):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')

    def circle(self, cx, cy, r=3.0, color="#1f77b4", fill=True):
        style = (f'fill="{color}"' if fill
                 else f'fill="none" stroke="{color}" stroke-width="1.2"')
        self.parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}" {style}/>')

    def rect(self, x, y, w, h, color="#1f77b4"):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{color}"/>')

    def text(self, x, y, s, size=11, anchor="start", color="#222"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="{color}">{s}</text>')

    def write(self, path: Path) -> None:
        Path(path).write_text("\n".join(self.parts) + "\n</svg>\n", encoding="utf-8")


class _Axes:
    """Linear data-to-pixel mapping inside a margin box."""

    def __init__(self, svg: _Svg, xlim, ylim, margin=(55, 15, 20, 40)):
        self.svg = svg
        left, right, top, bottom = margin
        self.x0, self.x1 = left, svg.width - right
        self.y0, self.y1 = svg.height - bottom, top
        self.xlim, self.ylim = xlim, ylim

    def px(self, x):
        lo, hi = self.xlim
        span = hi - lo or 1.0
        return self.x0 + (np.asarray(x) - lo) / span * (self.x1 - self.x0)

    def py(self, y):
        lo, hi = self.ylim
        span = hi - lo or 1.0
        return self.y0 + (np.asarray(y) - lo) / span * (self.y1 - self.y0)

    def frame(self, xlabel="", ylabel="", title=""):
        s = self.svg
        s.line(self.x0, self.y0, self.x1, self.y0)
        s.line(self.x0, self.y0, self.x0, self.y1)
        for frac in (0.0, 0.5, 1.0):
            xv = self.xlim[0] + frac * (self.xlim[1] - self.xlim[0])
            yv = self.ylim[0] + frac * (self.ylim[1] - self.ylim[0])
            s.text(float(self.px(xv)), self.y0 + 14, _fmt(xv), size=9, anchor="middle")
            s.text(self.x0 - 4, float(self.py(yv)) + 3, _fmt(yv), size=9, anchor="end")
        if xlabel:
            s.text((self.x0 + self.x1) / 2, s.height - 6, xlabel, anchor="middle")
        if ylabel:
            s.text(12, self.y1 - 5, ylabel)
        if title:
            s.text((self.x0 + self.x1) / 2, 12, title, anchor="middle")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    # one template per row: "%.6g" formats a float as _fmt does
    template = ",".join(["%.6g"] * len(columns)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(template % row for row in zip(*columns))


def parity_plot(measured: np.ndarray, prior_pred: np.ndarray,
                posterior_pred: np.ndarray, label: str, path: Path) -> None:
    """Prediction vs measurement with prior and posterior markers and the
    y = x reference line spanning the data range."""
    path = Path(path)
    allv = np.concatenate([measured, prior_pred, posterior_pred])
    lo, hi = float(allv.min()), float(allv.max())
    pad = 0.05 * (hi - lo or 1.0)
    lims = (lo - pad, hi + pad)
    svg = _Svg(420, 380)
    ax = _Axes(svg, lims, lims)
    ax.frame(xlabel=f"measured {label}", ylabel=f"predicted {label}",
             title=f"Parity: {label}")
    svg.line(float(ax.px(lims[0])), float(ax.py(lims[0])),
             float(ax.px(lims[1])), float(ax.py(lims[1])), color="#888", dash="4,3")
    for m, p in zip(measured, prior_pred):
        svg.circle(float(ax.px(m)), float(ax.py(p)), color=_COLORS[1], fill=False)
    for m, p in zip(measured, posterior_pred):
        svg.circle(float(ax.px(m)), float(ax.py(p)), color=_COLORS[0])
    svg.text(ax.x0 + 8, ax.y1 + 12, "open: prior nominal", size=10, color=_COLORS[1])
    svg.text(ax.x0 + 8, ax.y1 + 26, "filled: posterior mean", size=10, color=_COLORS[0])
    svg.write(path)
    _write_csv(path.with_suffix(".csv"),
               ["measured", "prior_prediction", "posterior_prediction"],
               [measured, prior_pred, posterior_pred])


def trace_plot(series: np.ndarray, name: str, path: Path) -> None:
    path = Path(path)
    n = series.size
    svg = _Svg(520, 240)
    ax = _Axes(svg, (0, n), (float(series.min()), float(series.max())))
    ax.frame(xlabel="step", ylabel=name, title=f"Trace: {name}")
    step = max(1, n // 2000)  # cap the polyline size
    idx = np.arange(0, n, step)
    ax.svg.polyline(ax.px(idx), ax.py(series[idx]))
    svg.write(path)


def acf_plot(acf: np.ndarray, name: str, path: Path) -> None:
    path = Path(path)
    lags = np.arange(acf.size)
    svg = _Svg(420, 240)
    ax = _Axes(svg, (0, float(acf.size)), (min(0.0, float(acf.min())), 1.0))
    ax.frame(xlabel="lag", ylabel="acf", title=f"Autocorrelation: {name}")
    zero_y = float(ax.py(0.0))
    svg.line(ax.x0, zero_y, ax.x1, zero_y, color="#888", dash="2,3")
    for lag, val in zip(lags, acf):
        x = float(ax.px(float(lag) + 0.5))
        svg.line(x, zero_y, x, float(ax.py(val)), color=_COLORS[0], width=2.0)
    svg.write(path)
    _write_csv(path.with_suffix(".csv"), ["lag", "acf"], [lags.astype(float), acf])


def pairs_grid(samples: np.ndarray, names: tuple[str, ...], path: Path,
               bins: int = 30) -> None:
    """Lower-triangle scatter panels with marginal histograms on the diagonal."""
    path = Path(path)
    if samples.size == 0:
        raise ValueError("empty chain")
    d = samples.shape[1]
    panel, gap, margin = 95, 8, 40
    size = margin * 2 + d * panel + (d - 1) * gap
    svg = _Svg(size, size)
    csv_cols, csv_head = [], []
    for i in range(d):
        csv_head.append(names[i])
        csv_cols.append(samples[:, i])
    for i in range(d):
        for j in range(i + 1):
            x0 = margin + j * (panel + gap)
            y0 = margin + i * (panel + gap)
            xi, xj = samples[:, j], samples[:, i]
            if i == j:
                counts, edges = np.histogram(xi, bins=bins)
                peak = counts.max() or 1
                for b in range(bins):
                    h = counts[b] / peak * (panel - 12)
                    bx = x0 + b / bins * panel
                    svg.rect(bx, y0 + panel - h, panel / bins, h, color=_COLORS[0])
                svg.text(x0 + panel / 2, y0 - 3, names[i], size=9, anchor="middle")
            else:
                lo_x, hi_x = float(xi.min()), float(xi.max())
                lo_y, hi_y = float(xj.min()), float(xj.max())
                sx = (hi_x - lo_x) or 1.0
                sy = (hi_y - lo_y) or 1.0
                step = max(1, samples.shape[0] // 500)
                for k in range(0, samples.shape[0], step):
                    px = x0 + (xi[k] - lo_x) / sx * panel
                    py = y0 + panel - (xj[k] - lo_y) / sy * panel
                    svg.circle(px, py, r=1.2, color=_COLORS[0])
            svg.parts.append(
                f'<rect x="{x0}" y="{y0}" width="{panel}" height="{panel}" '
                f'fill="none" stroke="#999" stroke-width="0.7"/>')
    svg.write(path)
    _write_csv(path.with_suffix(".csv"), csv_head, csv_cols)


def bar_chart(values: np.ndarray, labels: tuple[str, ...], title: str,
              path: Path) -> None:
    path = Path(path)
    n = len(labels)
    svg = _Svg(60 + 50 * n, 280)
    lo = min(0.0, float(np.min(values)))
    hi = max(0.0, float(np.max(values))) or 1.0
    ax = _Axes(svg, (0, n), (lo, hi * 1.05))
    ax.frame(ylabel=title, title=title)
    zero_y = float(ax.py(0.0))
    for i, val in enumerate(values):
        x = float(ax.px(i + 0.15))
        w = float(ax.px(i + 0.85)) - x
        y = float(ax.py(val))
        svg.rect(x, min(y, zero_y), w, abs(zero_y - y), color=_COLORS[0])
        svg.text(float(ax.px(i + 0.5)), ax.y0 + 14, labels[i], size=8, anchor="middle")
    svg.write(path)
    with open(path.with_suffix(".csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write("parameter,value\n")
        fh.writelines("%s,%.6g\n" % row for row in zip(labels, values))
