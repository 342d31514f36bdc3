import hashlib
import xml.etree.ElementTree as ET

import numpy as np

import digraphlets as dg
from digraphlets.heatmap import render_cohort_heatmap, render_correlation_heatmap


def _matrix(values, constant=None, names=None):
    values = np.asarray(values, dtype=float)
    k = len(values)
    return dg.GraphletCorrelationMatrix(
        values,
        tuple(f"c{i}" for i in range(k)) if names is None else names,
        np.zeros(k, bool) if constant is None else np.asarray(constant),
    )


def test_correlation_svg_well_formed_and_deterministic():
    rng = np.random.default_rng(0)
    v = rng.uniform(-1, 1, (16, 16))
    v = (v + v.T) / 2
    np.fill_diagonal(v, 1.0)
    m = _matrix(v)
    svg = render_correlation_heatmap(m, theta=0.7)
    assert svg == render_correlation_heatmap(m, theta=0.7)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 16 * 16 + 1  # cells + background


def test_correlation_colors():
    v = np.eye(3)
    v[0, 1] = v[1, 0] = 0.5    # below threshold
    v[0, 2] = v[2, 0] = 1.0    # fully positive
    v[1, 2] = v[2, 1] = -1.0   # fully negative
    svg = render_correlation_heatmap(_matrix(v), theta=0.7)
    assert '#b2182b' in svg
    assert '#2166ac' in svg
    assert '#e0e0e0' in svg
    assert '#fff3bf' not in svg


def test_correlation_flagged_cells():
    v = np.eye(3)
    svg = render_correlation_heatmap(_matrix(v, constant=[False, True, False]))
    assert '#fff3bf' in svg


def test_blend_endpoints():
    v = np.eye(2)
    v[0, 1] = v[1, 0] = 0.7000001  # barely significant: near-base color
    svg = render_correlation_heatmap(_matrix(v), theta=0.7)
    assert '#f7f7f7' in svg


def test_cohort_svg():
    pos = np.zeros((4, 4))
    neg = np.zeros((4, 4))
    pos[0, 1] = 100.0
    neg[2, 3] = 50.0
    np.fill_diagonal(pos, 100.0)
    stats = dg.CohortStats(pos, neg, 12, 0.7, tuple(f"c{i}" for i in range(4)))
    svg = render_cohort_heatmap(stats)
    root = ET.fromstring(svg)
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 2 * 16 + 1
    assert '#b2182b' in svg   # 100% positive cell at full color
    assert '#f7f7f7' in svg   # 0% cells at base color
    assert 'share of 12 matrices' in svg
    assert svg == render_cohort_heatmap(stats)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_heatmap_bytes_are_pinned():
    v = np.eye(4)
    v[0, 1] = v[1, 0] = 0.85   # red, half way from theta to 1
    v[0, 2] = v[2, 0] = -0.95  # blue
    v[1, 2] = v[2, 1] = 0.2    # grey; the diagonal is full red
    m = _matrix(v, [False, False, False, True], ("a<b", "x&y", "p>q", "c3"))
    svg = render_correlation_heatmap(m, theta=0.7)
    for colour in ("#d48891", "#457eb8", "#e0e0e0", "#fff3bf"):
        assert colour in svg
    assert "a&lt;b vs x&amp;y: r=0.850" in svg and "p&gt;q" in svg
    assert _sha(svg) == (
        "e55b19bf5261ae19575eb0fbe2453cb3012c111dc1d0e844bb582fddf3e839e9"
    )
    assert _sha(render_correlation_heatmap(_matrix(np.eye(1)))) == (
        "94c2b9ebab090e8b5371842d43d6118e7a3598d726ffdc228c67043489e556cb"
    )
    rng = np.random.default_rng(7)
    pos = rng.integers(0, 13, (16, 16)) * (100 / 12)
    neg = rng.integers(0, 13, (16, 16)) * (100 / 12)
    stats = dg.CohortStats(pos, neg, 12, 0.7, tuple(f"o{i}" for i in range(16)))
    assert _sha(render_cohort_heatmap(stats)) == (
        "3d160b1372f408621fb362bed0a1dc4e7299c56a16b04c84d1ae9f42b398b544"
    )
