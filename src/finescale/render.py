"""Choropleth SVG output: one path per region, darker fill for higher values."""

from __future__ import annotations

import numpy as np

from finescale.geo import Partition

N_RAMP_STEPS = 256
WIDTH = 640  # of the SVG in pixels; its height keeps the partition's aspect ratio
# single-hue blue ramp endpoints (light -> dark)
_LIGHT = np.array([239, 243, 255])
_DARK = np.array([8, 48, 107])
# ElementTree's attribute escapes, in the order it applies them
_ATTRIBUTE_ESCAPES = (
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
    ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"),
)


def _attribute(text: str) -> str:
    """text escaped as ElementTree escapes an attribute value."""
    for char, entity in _ATTRIBUTE_ESCAPES:
        text = text.replace(char, entity)
    return text


def choropleth_svg(partition: Partition, values) -> str:
    """Render polygons filled on a min-max-normalized sequential ramp.

    The ramp steps, their colors and the vertex transform are array passes.
    The document is joined as text, the bytes ElementTree writes for the
    same elements.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != len(partition):
        raise ValueError("one value per region required")
    lo, hi = float(values.min()), float(values.max())
    with np.errstate(invalid="ignore", over="ignore"):  # refused below
        norm = np.zeros_like(values) if hi == lo else (values - lo) / (hi - lo)
    if not np.isfinite(norm).all():
        raise ValueError("values must be finite, and their range too")
    steps = np.minimum((np.clip(norm, 0.0, 1.0) * N_RAMP_STEPS).astype(int), N_RAMP_STEPS - 1)
    u = np.arange(N_RAMP_STEPS) / (N_RAMP_STEPS - 1)  # each ramp step's color, light to dark
    rgb = np.round(_LIGHT + u[:, None] * (_DARK - _LIGHT)).astype(int)
    fills = ["#{:02x}{:02x}{:02x}".format(*c) for c in rgb.tolist()]

    rings = [ring for r in partition.regions for rings in r.geometry for ring in rings]
    vertices = np.concatenate(rings)
    (x0, y0), (x1, y1) = vertices.min(axis=0).tolist(), vertices.max(axis=0).tolist()
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    height = int(round(WIDTH * span_y / span_x))
    sx = WIDTH / span_x
    sy = -height / span_y  # flip: SVG y grows downward
    scale, shift = np.array([sx, sy]), np.array([-x0 * sx, height - y0 * sy])
    points = [f"{x:.4f},{y:.4f}" for x, y in (vertices * scale + shift).tolist()]
    ends = np.cumsum([len(ring) for ring in rings]).tolist()
    ring_d = ["M" + " L".join(points[i:j]) + " Z" for i, j in zip([0, *ends[:-1]], ends)]

    head = (
        "<?xml version='1.0' encoding='utf-8'?>\n"
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" '
        f'height="{height}" viewBox="0 0 {WIDTH} {height}">'
    )
    paths, first = [head], 0
    for region, step in zip(partition.regions, steps.tolist()):
        last = first + sum(len(rings) for rings in region.geometry)
        paths.append(
            f'<path id="{_attribute(region.id)}" d="{" ".join(ring_d[first:last])}" '
            f'fill="{fills[step]}" stroke="#ffffff" stroke-width="0.5" />'
        )
        first = last
    paths.append("</svg>")
    return "".join(paths)
