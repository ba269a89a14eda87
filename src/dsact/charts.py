"""Hand-rolled SVG line charts; no plotting dependency."""

from __future__ import annotations

from pathlib import Path

from .harness_util import write_atomic

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
_WIDTH, _HEIGHT = 720, 440  # pixels
_N_TICKS = 5  # intervals per axis


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """_N_TICKS + 1 evenly spaced ticks from lo to hi; the caller makes hi > lo."""
    span = (hi - lo) / _N_TICKS
    return [lo + i * span for i in range(_N_TICKS + 1)]


def write_line_chart(
    path: str | Path,
    series: dict[str, tuple[list[float], list[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Write a multi-series line chart, atomically; series maps label ->
    (xs, ys)."""
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 50
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys if y == y]  # drop NaN
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#999"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{margin_t + plot_h}" x2="{px(t):.1f}" '
            f'y2="{margin_t + plot_h + 4}" stroke="#333"/>'
            f'<text x="{px(t):.1f}" y="{margin_t + plot_h + 18}" text-anchor="middle">{t:.4g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{margin_l - 4}" y1="{py(t):.1f}" x2="{margin_l}" y2="{py(t):.1f}" stroke="#333"/>'
            f'<text x="{margin_l - 8}" y="{py(t) + 4:.1f}" text-anchor="end">{t:.4g}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.0f}" y="{_HEIGHT - 10}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{margin_t + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {margin_t + plot_h / 2:.0f})">{y_label}</text>'
    )
    for k, (label, (xs, ys)) in enumerate(series.items()):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(
            f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys) if y == y
        )
        if pts:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        ly = margin_t + 14 + 16 * k
        parts.append(
            f'<line x1="{margin_l + 8}" y1="{ly - 4}" x2="{margin_l + 28}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{margin_l + 34}" y="{ly}">{label}</text>'
        )
    parts.append("</svg>")
    svg = "\n".join(parts).encode()
    write_atomic(path, lambda f: f.write(svg))
