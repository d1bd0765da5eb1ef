"""Standalone SVG rendering of an instance and a tour.

The output is a plain string built from fixed-precision numbers, so a given
(instance, tour) pair always produces byte-identical SVG. Cities appear as
labeled circles (1-based labels, matching all human-facing output), tour
edges as lines, and the tour length in a caption.
"""

from __future__ import annotations

import math
import re

from .instance import Instance, Tour, build_distance_matrix, tour_length

WIDTH = 800
HEIGHT = 600
MARGIN = 40
CITY_RADIUS = 14

# characters outside XML 1.0's Char production: C0 controls other than tab,
# LF and CR, lone surrogates, and U+FFFE/U+FFFF
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text: str) -> str:
    """Text as XML character data: '&', '<' and '>' as xml.sax.saxutils.escape
    writes them, and each character that XML cannot hold as U+FFFD."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _NOT_XML_CHAR.sub("\ufffd", text)


def _scaled_positions(instance: Instance) -> list[tuple[float, float]]:
    """Affine-map coordinates into the drawing area: uniform scale, centered,
    y flipped so larger y is drawn higher."""
    xs = [c.x for c in instance.cities]
    ys = [c.y for c in instance.cities]
    min_x, min_y = min(xs), min(ys)
    span_x = max(xs) - min_x
    span_y = max(ys) - min_y
    avail_w = WIDTH - 2 * MARGIN
    avail_h = HEIGHT - 2 * MARGIN
    # a span too small to divide by (zero, or one whose scale overflows to
    # inf) limits nothing, so its cities are centred on that axis
    scales = [avail_w / span_x if span_x > 0 else math.inf,
              avail_h / span_y if span_y > 0 else math.inf]
    finite = [s for s in scales if math.isfinite(s)]
    scale = min(finite) if finite else 1.0
    off_x = MARGIN + (avail_w - span_x * scale) / 2
    off_y = MARGIN + (avail_h - span_y * scale) / 2
    return [
        (off_x + (c.x - min_x) * scale,
         HEIGHT - (off_y + (c.y - min_y) * scale))
        for c in instance.cities
    ]


def render_tour_svg(instance: Instance, tour: Tour) -> str:
    """Render the instance with the given tour as a complete SVG document."""
    pos = _scaled_positions(instance)
    cost = tour_length(tour, build_distance_matrix(instance))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if len(tour) >= 2:
        for k in range(len(tour)):
            x1, y1 = pos[tour[k]]
            x2, y2 = pos[tour[(k + 1) % len(tour)]]
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="black" stroke-width="2"/>')
    for i, (x, y) in enumerate(pos):
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{CITY_RADIUS}" '
            f'fill="#cfe2ff" stroke="black" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{y + 4.5:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{i + 1}</text>')
    caption = f"{_escape(instance.name)}: tour length {cost:.5f}"
    parts.append(
        f'<text x="{MARGIN}" y="{HEIGHT - 12}" font-family="sans-serif" '
        f'font-size="16">{caption}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
