"""Deterministic SVG scatter plots of embeddings and biplots.

Samples render as filled circles, variables as crosses; every marker
carries class="marker". Output bytes depend only on the input values, so
identical runs produce identical files.
"""

import numpy as np

from ._fsio import atomic_write_text
from .embedding import BiplotCoordinates, Embedding
from .errors import ParameterError

WIDTH, HEIGHT = 640.0, 480.0
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64.0, 20.0, 20.0, 52.0

SAMPLE_COLOR = "#1f77b4"
VARIABLE_COLOR = "#d62728"
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]


def _fmt(x):
    return f"{x:.4f}"


def _xml_text(text):
    """text with &, < and > escaped, as xml.sax.saxutils.escape does
    (importing that module would import urllib.request with it)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _gather(obj, component_x, component_y):
    """The two plotted columns (copied alone), kinds and labels."""
    if isinstance(obj, Embedding):
        blocks = [obj.coordinates]
    elif isinstance(obj, BiplotCoordinates):
        blocks = [obj.sample_coords, obj.variable_coords]
    else:
        raise ParameterError(
            "emit_scatter accepts an Embedding or BiplotCoordinates"
        )
    dims = blocks[0].shape[1]
    for name, idx in (("component_x", component_x), ("component_y", component_y)):
        if not 0 <= idx < dims:
            raise ParameterError(
                f"{name}={idx} out of range for {dims} available components"
            )
    xs = np.concatenate([b[:, component_x] for b in blocks])
    ys = np.concatenate([b[:, component_y] for b in blocks])
    return xs, ys, obj.object_kinds, obj.object_labels


def _axis_scale(lo, hi, pixel_lo, pixel_hi):
    span = hi - lo
    pad = 0.05 * span if span > 0 else 1.0
    lo, hi = lo - pad, hi + pad

    def to_pixel(v):
        return pixel_lo + (v - lo) / (hi - lo) * (pixel_hi - pixel_lo)

    return to_pixel


def emit_scatter(obj, component_x=0, component_y=1, color_by=None, *, out):
    """Write an SVG scatter of two embedding components to the path out.

    component_x and component_y are zero-based column indices. color_by,
    when given, is a sequence of category names aligned with the objects;
    categories are assigned palette colors in sorted order. Without it,
    samples and variables get one hue each.
    """
    xs, ys, kinds, labels = _gather(obj, component_x, component_y)
    if color_by is not None and len(color_by) != len(labels):
        raise ParameterError(
            f"{len(color_by)} colors for {len(labels)} objects"
        )
    to_px = _axis_scale(float(xs.min()), float(xs.max()),
                        MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    to_py = _axis_scale(float(ys.min()), float(ys.max()),
                        HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)

    if color_by is not None:
        categories = sorted(set(color_by))
        palette = {c: PALETTE[i % len(PALETTE)] for i, c in enumerate(categories)}
        colors = [palette[c] for c in color_by]
    else:
        colors = [SAMPLE_COLOR if k == "sample" else VARIABLE_COLOR
                  for k in kinds]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        'fill="#ffffff"/>',
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(HEIGHT - MARGIN_BOTTOM)}" '
        f'x2="{_fmt(WIDTH - MARGIN_RIGHT)}" y2="{_fmt(HEIGHT - MARGIN_BOTTOM)}" '
        'stroke="#333333"/>',
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(MARGIN_TOP)}" '
        f'x2="{_fmt(MARGIN_LEFT)}" y2="{_fmt(HEIGHT - MARGIN_BOTTOM)}" '
        'stroke="#333333"/>',
        f'<text x="{_fmt((MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2)}" '
        f'y="{_fmt(HEIGHT - 14)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">Component {component_x + 1}'
        '</text>',
        f'<text x="18" y="{_fmt(HEIGHT / 2)}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {_fmt(HEIGHT / 2)})">'
        f'Component {component_y + 1}</text>',
    ]
    for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        px, py = to_px(x), to_py(y)
        color = colors[i]
        title = f"<title>{_xml_text(labels[i])}</title>"
        if kinds[i] == "sample":
            parts.append(
                f'<circle class="marker" cx="{_fmt(px)}" cy="{_fmt(py)}" '
                f'r="3.5" fill="{color}" fill-opacity="0.85">{title}</circle>'
            )
        else:
            d = (f"M {_fmt(px - 3)} {_fmt(py - 3)} L {_fmt(px + 3)} {_fmt(py + 3)} "
                 f"M {_fmt(px - 3)} {_fmt(py + 3)} L {_fmt(px + 3)} {_fmt(py - 3)}")
            parts.append(
                f'<path class="marker" d="{d}" stroke="{color}" '
                f'stroke-width="1.4" fill="none">{title}</path>'
            )
    parts.append("</svg>\n")
    text = "\n".join(parts)
    del parts  # the joined text alone is alive while it is written
    atomic_write_text(out, text)
    return out
