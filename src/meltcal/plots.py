"""Dependency-free SVG plot emission.

Every figure is drawn from primitive shapes, each kind written through one
``%`` template per element from columns of numbers, so a figure's marks
are drawn from arrays and not one call at a time.  ``"%.6g"`` writes every
coordinate.  A pairs-grid scatter panel is one ``<path>`` of zero-length
subpaths, one at each plotted state, which a round line cap draws as a
dot.  Each figure but a trace is written alongside a CSV of its data
series, so the results can be re-plotted with any external tool.  A trace
writes none: it plots a column of the states that the pairs grid's CSV
holds.
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


def _rows(template: str, *columns) -> list[str]:
    """``template % row`` for each row of the broadcast ``columns``."""
    cols = [c.ravel().tolist() for c in np.broadcast_arrays(*columns)]
    return [template % row for row in zip(*cols)]


class _Svg:
    """An SVG document; each shape method takes scalars or arrays and
    writes one element per entry of its broadcast coordinate columns."""

    def __init__(self, width: int, height: int):
        self.width, self.height = width, height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, color="#333", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts += _rows(
            '<line x1="%.6g" y1="%.6g" x2="%.6g" y2="%.6g" '
            f'stroke="{color}" stroke-width="{width}"{d}/>', x1, y1, x2, y2)

    def polyline(self, xs, ys, color="#1f77b4", width=1.0):
        pts = " ".join(_rows("%.6g,%.6g", xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')

    def circle(self, cx, cy, r=3.0, color="#1f77b4", fill=True):
        style = (f'fill="{color}"' if fill
                 else f'fill="none" stroke="{color}" stroke-width="1.2"')
        self.parts += _rows(f'<circle cx="%.6g" cy="%.6g" r="{r}" {style}/>', cx, cy)

    def rect(self, x, y, w, h, color="#1f77b4"):
        self.parts += _rows(
            f'<rect x="%.6g" y="%.6g" width="%.6g" height="%.6g" fill="{color}"/>',
            x, y, w, h)

    def text(self, x, y, s, size=11, anchor="start", color="#222"):
        self.parts += _rows(
            f'<text x="%.6g" y="%.6g" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}" fill="{color}">%s</text>', x, y, s)

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
            s.text(self.px(xv), self.y0 + 14, "%.6g" % xv, size=9, anchor="middle")
            s.text(self.x0 - 4, self.py(yv) + 3, "%.6g" % yv, size=9, anchor="end")
        if xlabel:
            s.text((self.x0 + self.x1) / 2, s.height - 6, xlabel, anchor="middle")
        if ylabel:
            s.text(12, self.y1 - 5, ylabel)
        if title:
            s.text((self.x0 + self.x1) / 2, 12, title, anchor="middle")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    template = ",".join(["%.6g"] * len(columns)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_rows(template, *columns))


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
    svg.line(ax.px(lims[0]), ax.py(lims[0]), ax.px(lims[1]), ax.py(lims[1]),
             color="#888", dash="4,3")
    svg.circle(ax.px(measured), ax.py(prior_pred), color=_COLORS[1], fill=False)
    svg.circle(ax.px(measured), ax.py(posterior_pred), color=_COLORS[0])
    svg.text(ax.x0 + 8, ax.y1 + 12, "open: prior nominal", size=10, color=_COLORS[1])
    svg.text(ax.x0 + 8, ax.y1 + 26, "filled: posterior mean", size=10, color=_COLORS[0])
    svg.write(path)
    _write_csv(path.with_suffix(".csv"),
               ["measured", "prior_prediction", "posterior_prediction"],
               [measured, prior_pred, posterior_pred])


def trace_plot(series: np.ndarray, name: str, path: Path) -> None:
    n = series.size
    svg = _Svg(520, 240)
    ax = _Axes(svg, (0, n), (float(series.min()), float(series.max())))
    ax.frame(xlabel="step", ylabel=name, title=f"Trace: {name}")
    step = max(1, n // 2000)  # cap the polyline size
    idx = np.arange(0, n, step)
    svg.polyline(ax.px(idx), ax.py(series[idx]))
    svg.write(path)


def acf_plot(acf: np.ndarray, name: str, path: Path) -> None:
    path = Path(path)
    lags = np.arange(acf.size)
    svg = _Svg(420, 240)
    ax = _Axes(svg, (0, float(acf.size)), (min(0.0, float(acf.min())), 1.0))
    ax.frame(xlabel="lag", ylabel="acf", title=f"Autocorrelation: {name}")
    zero_y = ax.py(0.0)
    svg.line(ax.x0, zero_y, ax.x1, zero_y, color="#888", dash="2,3")
    x = ax.px(lags + 0.5)
    svg.line(x, zero_y, x, ax.py(acf), color=_COLORS[0], width=2.0)
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
    kept = samples[::max(1, samples.shape[0] // 500)]
    for i in range(d):
        for j in range(i + 1):
            x0, y0 = margin + j * (panel + gap), margin + i * (panel + gap)
            if i == j:
                counts, _ = np.histogram(samples[:, i], bins=bins)
                h = counts / (counts.max() or 1) * (panel - 12)
                svg.rect(x0 + np.arange(bins) / bins * panel, y0 + panel - h,
                         panel / bins, h, color=_COLORS[0])
                svg.text(x0 + panel / 2, y0 - 3, names[i], size=9, anchor="middle")
            else:
                ax = _Axes(svg, (samples[:, j].min(), samples[:, j].max()),
                           (samples[:, i].min(), samples[:, i].max()),
                           margin=(x0, size - x0 - panel, y0, size - y0 - panel))
                # zero-length subpaths: each round cap is a dot of radius 1.2
                dots = "".join(_rows("M%.6g %.6gh0", ax.px(kept[:, j]), ax.py(kept[:, i])))
                svg.parts.append(f'<path d="{dots}" fill="none" stroke="{_COLORS[0]}" '
                                 'stroke-width="2.4" stroke-linecap="round"/>')
            svg.parts.append(
                f'<rect x="{x0}" y="{y0}" width="{panel}" height="{panel}" '
                f'fill="none" stroke="#999" stroke-width="0.7"/>')
    svg.write(path)
    _write_csv(path.with_suffix(".csv"), list(names), list(samples.T))


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
