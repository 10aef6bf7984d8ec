"""Dependency-free SVG rendering of sweep results.

The plot is a pure function of the sweep's condition results: success
frequency of both arms against the initial difference, in the layout usual
for consensus sweeps (frequency on [0, 1], difference on the x axis,
isolated curve vs with-opponents curve). No timestamps or environment data
are embedded, so identical results always produce identical bytes.
"""

from __future__ import annotations

from .game import ConditionResult

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 62
_MARGIN_R = 20
_MARGIN_T = 34
_MARGIN_B = 52

_WITH_COLOR = "#c44e52"
_WITHOUT_COLOR = "#4c72b0"


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _x_ticks(lo: int, hi: int) -> list[int]:
    if hi == lo:
        return [lo]
    span = hi - lo
    step = max(1, span // 10)
    # round the step to 1/2/5 x 10^k for readable labels
    mag = 10 ** (len(str(step)) - 1)
    for mult in (1, 2, 5, 10):
        if step <= mult * mag:
            step = mult * mag
            break
    ticks = list(range(lo, hi + 1, step))
    if ticks[-1] != hi:
        ticks.append(hi)
    return ticks


def sweep_svg(results: list[ConditionResult]) -> str:
    """Render both success-frequency curves against the initial difference.

    A sweep labels each condition with its initial difference; conditions
    that failed are left out.
    """
    points = [(int(r.label), r.with_opponents.mean, r.baseline.mean)
              for r in results if r.error is None]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    if points:
        points.sort(key=lambda p: p[0])
        d_lo = min(p[0] for p in points)
        d_hi = max(p[0] for p in points)
        d_span = max(1, d_hi - d_lo)

        def sx(d: float) -> float:
            return _MARGIN_L + (d - d_lo) / d_span * plot_w

        def sy(p: float) -> float:
            return _MARGIN_T + (1.0 - p) * plot_h

        # axes
        parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
                     f'y2="{_MARGIN_T + plot_h}" stroke="black"/>')
        parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
                     f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" '
                     f'stroke="black"/>')
        for i in range(6):
            frac = i / 5.0
            y = sy(frac)
            parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{_fmt(y)}" '
                         f'x2="{_MARGIN_L}" y2="{_fmt(y)}" stroke="black"/>')
            parts.append(f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" '
                         f'font-size="12" text-anchor="end">{_fmt(frac)}</text>')
        for d in _x_ticks(d_lo, d_hi):
            x = sx(d)
            parts.append(f'<line x1="{_fmt(x)}" y1="{_MARGIN_T + plot_h}" '
                         f'x2="{_fmt(x)}" y2="{_MARGIN_T + plot_h + 4}" '
                         f'stroke="black"/>')
            parts.append(f'<text x="{_fmt(x)}" y="{_MARGIN_T + plot_h + 18}" '
                         f'font-size="12" text-anchor="middle">{d}</text>')

        for color, key in ((_WITHOUT_COLOR, 2), (_WITH_COLOR, 1)):
            path = " ".join(f"{_fmt(sx(p[0]))},{_fmt(sy(p[key]))}" for p in points)
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            for p in points:
                parts.append(f'<circle cx="{_fmt(sx(p[0]))}" '
                             f'cy="{_fmt(sy(p[key]))}" r="2.5" fill="{color}"/>')
    else:
        parts.append(f'<text x="{_WIDTH // 2}" y="{_HEIGHT // 2}" font-size="14" '
                     f'text-anchor="middle">no plottable rows</text>')

    # labels and legend
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
                 f'font-size="13" text-anchor="middle">initial difference '
                 f'x(0) - y(0)</text>')
    parts.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{_MARGIN_T + plot_h / 2:.1f})">success frequency</text>')
    lx = _MARGIN_L + 12
    parts.append(f'<line x1="{lx}" y1="{_MARGIN_T + 12}" x2="{lx + 24}" '
                 f'y2="{_MARGIN_T + 12}" stroke="{_WITHOUT_COLOR}" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<text x="{lx + 30}" y="{_MARGIN_T + 16}" font-size="12">'
                 f'isolated</text>')
    parts.append(f'<line x1="{lx}" y1="{_MARGIN_T + 30}" x2="{lx + 24}" '
                 f'y2="{_MARGIN_T + 30}" stroke="{_WITH_COLOR}" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<text x="{lx + 30}" y="{_MARGIN_T + 34}" font-size="12">'
                 f'with opponents</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
