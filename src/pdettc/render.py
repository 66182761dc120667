"""Dependency-free image emission: plain portable pixmaps and SVG lines."""

from __future__ import annotations

import numpy as np

from .storage import write_text


def write_field_ppm(path, field: np.ndarray, vmin: float | None = None,
                    vmax: float | None = None) -> None:
    """Grayscale render of a 2D field as a plain (ASCII, P3) pixmap."""
    a = np.asarray(field, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"need a 2D field, got shape {a.shape}")
    lo = float(np.min(a)) if vmin is None else vmin
    hi = float(np.max(a)) if vmax is None else vmax
    span = hi - lo if hi > lo else 1.0
    gray = np.clip(np.rint((a - lo) / span * 255.0), 0, 255).astype(int)
    h, w = gray.shape
    lines = [f"P3\n{w} {h}\n255\n"]
    for row in gray:
        lines.append(" ".join(f"{v} {v} {v}" for v in row) + "\n")
    write_text(path, "".join(lines))


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def write_line_svg(path, series: dict, title: str = "", xlabel: str = "",
                   ylabel: str = "", width: int = 640, height: int = 420,
                   log_y: bool = False) -> None:
    """Multi-series line plot as a standalone SVG.

    ``series`` maps a label to (xs, ys); one polyline per label.
    """
    if not series:
        raise ValueError("nothing to plot")
    ml, mr, mt, mb = 64, 16, 28, 44
    pw, ph = width - ml - mr, height - mt - mb
    all_x = np.concatenate([np.asarray(xs, float) for xs, _ in series.values()])
    all_y = np.concatenate([np.asarray(ys, float) for _, ys in series.values()])
    if log_y:
        all_y = np.log10(np.maximum(all_y, 1e-300))
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    colors = ["#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#34495e",
              "#d35400", "#7f8c8d"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#333" stroke-width="1"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<text x="{ml + pw / 2:.0f}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{xlabel}</text>',
        f'<text x="14" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {mt + ph / 2:.0f})">{ylabel}</text>',
    ]
    for tx in _ticks(x0, x1):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{mt + ph}" x2="{px(tx):.1f}" '
                     f'y2="{mt + ph + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{mt + ph + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{tx:.3g}</text>')
    for ty in _ticks(y0, y1):
        label = f"1e{ty:.2g}" if log_y else f"{ty:.3g}"
        parts.append(f'<line x1="{ml - 4}" y1="{py(ty):.1f}" x2="{ml}" '
                     f'y2="{py(ty):.1f}" stroke="#333"/>')
        parts.append(f'<text x="{ml - 6}" y="{py(ty) + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{label}</text>')
    for i, (label, (xs, ys)) in enumerate(series.items()):
        ys = np.asarray(ys, float)
        if log_y:
            ys = np.log10(np.maximum(ys, 1e-300))
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        ly = mt + 14 + 14 * i
        parts.append(f'<line x1="{ml + pw - 110}" y1="{ly - 4}" x2="{ml + pw - 92}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 88}" y="{ly}" font-family="sans-serif" '
                     f'font-size="10">{label}</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
