"""Minimal static SVG line plots: one polyline, axes, a handful of ticks.

No external renderer; output is plain SVG 1.1 suitable for quick looks at
the tabulated curves.
"""

from __future__ import annotations

import math


def _ticks(lo: float, hi: float) -> list[float]:
    # i / 4 first: (hi - lo) * i overflows where hi - lo > max float / 4
    return [lo + (hi - lo) * (i / 4) for i in range(5)]


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi], or for constant data v the range [v, v + 1], or [v/2, v] in
    order where v + 1.0 rounds to v (|v| >= 2^53), finite up to max float."""
    if hi != lo:
        return lo, hi
    if lo + 1.0 != lo:
        return lo, lo + 1.0
    return min(lo, lo / 2), max(lo, lo / 2)


def line_plot_svg(x, y, *, title: str, x_label: str, y_label: str) -> str:
    """Render the curve (x, y) as a 720 x 480 SVG document string."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points with matching lengths")
    if any(not math.isfinite(v) for v in xs + ys):
        raise ValueError("plot data must be finite")
    width, height = 720, 480
    ml, mr, mt, mb = 70, 20, 40, 55
    x_lo, x_hi = _widen(min(xs), max(xs))
    y_lo, y_hi = _widen(min(ys), max(ys))
    if math.isinf(x_hi - x_lo) or math.isinf(y_hi - y_lo):
        raise ValueError("plot data must span at most the largest double")

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(v):
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{height - mb}" x2="{px(tx):.2f}" '
            f'y2="{height - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{height - mb + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.3g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" y2="{py(ty):.2f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.3g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.0f})">{y_label}</text>'
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f5fbf" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
