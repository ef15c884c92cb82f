"""The `plot` command's polygon reader and SVG writer, loaded only by `plot`.

`polygon_from_obj` reads a valuation polygon from the plot input: the Newton
polygon of coefficients at a prime p, the Hodge polygon of integer weights,
or given vertices, one of the three (`base.json_either`), its keys by
`base.json_key` and `json_list`, as the CLI reads its own, so that it
imports nothing from `cli`.  `svg` draws it on a
unit grid, byte for byte the same for the same polygon.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .base import InputError, Polygon, json_either, json_int, json_key, json_list, rat, rat_str, valuation

SVG_MAX_SPAN = 1000  # grid units on either axis of an SVG plot


def polygon_from_obj(obj) -> Polygon:
    given = json_either(obj, "input", "coefficients", "weights", "vertices")
    if given == "coefficients":
        pts = [
            (i, valuation(c, json_key(obj, "p", "input")))
            for i, c in enumerate(json_list(obj, "coefficients", "input"))
            if rat(c) != 0
        ]
        return Polygon.lower_hull(pts)
    if given == "weights":
        ws = sorted(json_int(w, "plot weights") for w in json_list(obj, "weights", "input"))
        acc = 0
        verts = [(0, Fraction(0))]
        for i, w in enumerate(ws, start=1):
            acc += w
            verts.append((i, Fraction(acc)))
        return Polygon(verts)
    if given == "vertices":
        vertices = json_list(obj, "vertices", "input")
        if not all(isinstance(v, list) and len(v) == 2 for v in vertices):
            raise InputError("plot vertices must be [x, y] pairs")
        return Polygon(vertices)  # which reads each x by `json_int` and each y by `rat`
    raise InputError("plot input needs 'coefficients'+'p', 'weights' or 'vertices'")


def svg(polygon: Polygon) -> str:
    unit, margin = 40, 30
    xs = [x for x, _ in polygon.vertices]
    ys = [y for _, y in polygon.vertices]
    x0, x1 = min(xs), max(xs)
    ylo = math.floor(min(ys))
    yhi = math.ceil(max(ys))
    if max(x1 - x0, yhi - ylo) > SVG_MAX_SPAN:  # one grid line per unit
        raise InputError(f"an SVG plot spans at most {SVG_MAX_SPAN} units; use --format json")
    width = (x1 - x0) * unit + 2 * margin
    height = (yhi - ylo) * unit + 2 * margin or 2 * margin

    def fx(x):
        return float((x - x0) * unit + margin)

    def fy(y):
        return float((Fraction(yhi) - Fraction(y)) * unit + margin)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for gx in range(x0, x1 + 1):
        out.append(
            f'<line x1="{fx(gx):g}" y1="{fy(yhi):g}" x2="{fx(gx):g}" y2="{fy(ylo):g}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
    for gy in range(ylo, yhi + 1):
        out.append(
            f'<line x1="{fx(x0):g}" y1="{fy(gy):g}" x2="{fx(x1):g}" y2="{fy(gy):g}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
    pts = " ".join(f"{fx(x):g},{fy(y):g}" for x, y in polygon.vertices)
    out.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="2"/>'
    )
    for x, y in polygon.vertices:
        out.append(
            f'<circle cx="{fx(x):g}" cy="{fy(y):g}" r="3" fill="#1f4e9c"/>'
        )
        out.append(
            f'<text x="{fx(x) + 5:g}" y="{fy(y) - 5:g}" font-size="10" '
            f'font-family="monospace" fill="#333333">({x},{rat_str(y)})</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
