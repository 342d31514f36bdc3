"""Plain-text SVG heatmaps for correlation and cohort matrices.

Rendering is deliberately dependency free and byte deterministic: the
same matrix and threshold always produce the same SVG string.  Cells
are colored only beyond the significance threshold, mirroring how the
matrices are read: red (#b2182b) for significant positive entries, blue
(#2166ac) for significant negative ones, with intensity interpolated
from near-white (#f7f7f7) as |r| moves from theta to 1.  Insignificant
cells are flat grey (#e0e0e0) and cells involving a flagged (constant)
column are pale yellow (#fff3bf).
"""

from __future__ import annotations

from functools import partial

from .analysis import DEFAULT_THETA

POSITIVE = (0xB2, 0x18, 0x2B)
NEGATIVE = (0x21, 0x66, 0xAC)
BASE = (0xF7, 0xF7, 0xF7)
NEUTRAL = "#e0e0e0"
FLAGGED = "#fff3bf"

_CELL = 26
_LEFT = 110
_TOP = 110
_PAD = 14


def _blend(full: tuple[int, int, int], frac: float) -> str:
    frac = min(max(frac, 0.0), 1.0)
    channels = (round(b + (f - b) * frac) for b, f in zip(BASE, full))
    return "#" + "".join(f"{c:02x}" for c in channels)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg(names, panels, caption: str) -> str:
    """One k x k grid per panel, side by side, above ``caption``; a panel
    is a cell function ``(i, j) -> (fill, tooltip)``."""
    k = len(names)
    step = k * _CELL + _LEFT + 60
    width = step * (len(panels) - 1) + _LEFT + k * _CELL + _PAD
    height = _TOP + k * _CELL + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        '<style>.lab{font:10px monospace;}.cap{font:11px monospace;}</style>'
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>'
    ]
    for p, cell in enumerate(panels):
        x0 = _LEFT + p * step
        for i in range(k):
            y = _TOP + i * _CELL
            parts.append(
                f'<text x="{x0 - 6}" y="{y + _CELL * 0.72:.1f}" '
                f'text-anchor="end" class="lab">{_esc(names[i])}</text>'
            )
            for j in range(k):
                fill, tooltip = cell(i, j)
                parts.append(
                    f'<rect x="{x0 + j * _CELL}" y="{y}" width="{_CELL - 1}" '
                    f'height="{_CELL - 1}" fill="{fill}">'
                    f'<title>{_esc(tooltip)}</title></rect>'
                )
        for j in range(k):
            x = x0 + j * _CELL + _CELL * 0.72
            parts.append(
                f'<text x="{x:.1f}" y="{_TOP - 6}" text-anchor="start" class="lab" '
                f'transform="rotate(-90 {x:.1f} {_TOP - 6})">{_esc(names[j])}</text>'
            )
    tail = f'<text x="{_LEFT}" y="{height - 8}" class="cap">{_esc(caption)}</text>'
    return "".join(parts) + tail + "</svg>\n"


def render_correlation_heatmap(matrix, theta: float = DEFAULT_THETA) -> str:
    """SVG for one ``GraphletCorrelationMatrix``, colored beyond +/- theta;
    cells of its ``constant`` columns are flagged."""
    values, constant, names = matrix.values, matrix.constant, matrix.columns

    def cell(i, j):
        r = values[i, j]
        if (constant[i] or constant[j]) and i != j:
            fill = FLAGGED
        elif r > theta:
            fill = _blend(POSITIVE, (r - theta) / (1 - theta))
        elif r < -theta:
            fill = _blend(NEGATIVE, (-r - theta) / (1 - theta))
        else:
            fill = NEUTRAL
        return fill, f"{names[i]} vs {names[j]}: r={r:.3f}"

    caption = f"red: r > {theta:.2f}  blue: r < -{theta:.2f}  yellow: constant column"
    return _svg(names, [cell], caption)


def render_cohort_heatmap(stats) -> str:
    """SVG with side-by-side panels of the positive / negative
    percentages of one ``CohortStats``."""
    names = stats.columns

    def cell(tag, pct, full, i, j):
        return (_blend(full, pct[i, j] / 100.0),
                f"{names[i]} vs {names[j]}: {tag} {pct[i, j]:.1f}%")

    panels = [partial(cell, "pos", stats.pos_pct, POSITIVE),
              partial(cell, "neg", stats.neg_pct, NEGATIVE)]
    caption = (f"share of {stats.count} matrices with r > {stats.theta:.2f} (left) "
               f"and r < -{stats.theta:.2f} (right)")
    return _svg(names, panels, caption)
