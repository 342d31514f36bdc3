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


def _grid(parts: list[str], x0: float, y0: float, names, colors, titles) -> None:
    k = len(names)
    for i in range(k):
        y = y0 + i * _CELL
        parts.append(
            f'<text x="{x0 - 6}" y="{y + _CELL * 0.72:.1f}" '
            f'text-anchor="end" class="lab">{_esc(names[i])}</text>'
        )
        for j in range(k):
            x = x0 + j * _CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL - 1}" height="{_CELL - 1}"'
                f' fill="{colors[i][j]}"><title>{_esc(titles[i][j])}</title></rect>'
            )
    for j in range(k):
        x = x0 + j * _CELL + _CELL * 0.72
        parts.append(
            f'<text x="{x:.1f}" y="{y0 - 6}" text-anchor="start" class="lab" '
            f'transform="rotate(-90 {x:.1f} {y0 - 6})">{_esc(names[j])}</text>'
        )


def _document(width: int, height: int, parts: list[str], caption: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        '<style>.lab{font:10px monospace;}.cap{font:11px monospace;}</style>'
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>'
    )
    tail = (
        f'<text x="{_LEFT}" y="{height - 8}" class="cap">{_esc(caption)}</text>'
        "</svg>"
    )
    return head + "".join(parts) + tail + "\n"


def render_correlation_heatmap(matrix, theta: float = DEFAULT_THETA) -> str:
    """SVG for one ``GraphletCorrelationMatrix``, colored beyond +/- theta;
    cells of its ``constant`` columns are flagged."""
    values, constant = matrix.values, matrix.constant
    names = list(matrix.columns)
    k = len(names)
    colors, titles = [], []
    for i in range(k):
        crow, trow = [], []
        for j in range(k):
            r = values[i, j]
            if (constant[i] or constant[j]) and i != j:
                crow.append(FLAGGED)
            elif r > theta:
                crow.append(_blend(POSITIVE, (r - theta) / (1 - theta)))
            elif r < -theta:
                crow.append(_blend(NEGATIVE, (-r - theta) / (1 - theta)))
            else:
                crow.append(NEUTRAL)
            trow.append(f"{names[i]} vs {names[j]}: r={r:.3f}")
        colors.append(crow)
        titles.append(trow)
    width = _LEFT + k * _CELL + _PAD
    height = _TOP + k * _CELL + 30
    parts: list[str] = []
    _grid(parts, _LEFT, _TOP, names, colors, titles)
    caption = (
        f"red: r > {theta:.2f}  blue: r < -{theta:.2f}  "
        "yellow: constant column"
    )
    return _document(width, height, parts, caption)


def render_cohort_heatmap(stats) -> str:
    """SVG with side-by-side panels of the positive / negative
    percentages of one ``CohortStats``."""
    names = list(stats.columns)
    k = len(names)
    panels = (("pos", stats.pos_pct, POSITIVE), ("neg", stats.neg_pct, NEGATIVE))
    parts: list[str] = []
    gap = 60
    for p, (tag, pct, full) in enumerate(panels):
        x0 = _LEFT + p * (k * _CELL + _LEFT + gap)
        colors = [
            [_blend(full, pct[i, j] / 100.0) for j in range(k)] for i in range(k)
        ]
        titles = [
            [f"{names[i]} vs {names[j]}: {tag} {pct[i, j]:.1f}%" for j in range(k)]
            for i in range(k)
        ]
        _grid(parts, x0, _TOP, names, colors, titles)
    width = _LEFT + 2 * (k * _CELL + _LEFT + gap) - _LEFT + _PAD - gap
    height = _TOP + k * _CELL + 30
    caption = (
        f"share of {stats.count} matrices with r > {stats.theta:.2f} (left) "
        f"and r < -{stats.theta:.2f} (right)"
    )
    return _document(width, height, parts, caption)
