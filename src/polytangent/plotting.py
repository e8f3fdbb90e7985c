"""Standalone SVG figures: curve, tangent, and optional secant with annotations.

All geometry (tangent slope, increments, the differential) is computed
exactly first; rationals become floats only when written into the SVG.
Data-space elements live in a ``<g>`` whose transform maps data
coordinates to pixels, so the emitted coordinates of the curve, tangent,
secant, and annotation segments are plain data coordinates.  Output is a
pure function of the inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .decomposition import increment
from .polynomial import Polynomial, integer_content
from .rational import exact
from .tangency import tangent_at

MARGIN_LEFT = 60.0
MARGIN_RIGHT = 20.0
MARGIN_TOP = 20.0
MARGIN_BOTTOM = 45.0
# The smallest canvas that leaves a plot area inside the margins.
MIN_WIDTH = int(MARGIN_LEFT + MARGIN_RIGHT) + 1
MIN_HEIGHT = int(MARGIN_TOP + MARGIN_BOTTOM) + 1

CURVE_COLOR = "#1f77b4"
TANGENT_COLOR = "#d62728"
SECANT_COLOR = "#2ca02c"
ANNOTATION_COLOR = "#7f7f7f"
DIFFERENTIAL_COLOR = "#ff7f0e"
SAMPLES = 257  # curve points, evenly spaced over the plot range

NSS = 'vector-effect="non-scaling-stroke"'


def _fmt(value: float) -> str:
    return repr(float(value))


def _line(name, x1, y1, x2, y2, color, width, extra="") -> str:
    """One data-space segment; ``extra`` holds further attributes, each with a trailing space."""
    return (
        f'<line id="{name}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
        f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{width}" {extra}{NSS}/>'
    )


def _sample_curve(f: Polynomial, lo: Fraction, hi: Fraction, samples: int) -> list:
    """(float(x), float(f(x))) at `samples` evenly spaced x from lo to hi.

    Exact, but in integers: every x is a / c over one denominator c, f's
    coefficients are n_k / d, and f(a/c) = sum n_k a^k c^(N-k) / (d c^N).
    An int/int true division rounds correctly, as float(Fraction) does, so
    the floats equal those of evaluating f at each Fraction x.
    """
    steps = samples - 1
    (a_lo, a_hi), den = integer_content((lo, hi))
    c = den * steps
    ints, d = integer_content(f.coeffs)
    top = max(len(ints) - 1, 0)
    scaled = [n * c ** (top - k) for k, n in enumerate(ints)]
    scaled.reverse()
    y_den = d * c**top
    curve = []
    for i in range(samples):
        a = a_lo * steps + (a_hi - a_lo) * i
        y = 0
        for n in scaled:
            y = y * a + n
        curve.append((a / c, y / y_den))
    return curve


def render_figure(
    f: Polynomial,
    point,
    lo,
    hi,
    dx=None,
    width: int = 800,
    height: int = 600,
) -> tuple[str, dict]:
    """Build the SVG text and a dictionary of the exact geometry used.

    Draws f over [lo, hi], the tangent at `point` across the full
    range, and, when dx is given, the secant through the base point A
    and B = (point + dx, f(point + dx)) with segments for the argument
    increment, the function increment, and the differential.
    """
    p = exact(point)
    lo = exact(lo)
    hi = exact(hi)
    if lo >= hi:
        raise ValueError("plot range must satisfy lo < hi")
    if width < MIN_WIDTH or height < MIN_HEIGHT:
        raise ValueError(
            f"size {width}x{height} leaves no plot area inside the margins; "
            f"the minimum is {MIN_WIDTH}x{MIN_HEIGHT}"
        )

    tangent = tangent_at(f, p)
    k, b = tangent.slope, tangent.intercept

    curve = _sample_curve(f, lo, hi, SAMPLES)

    fp = k * p + b  # the tangent meets f at p
    ax, ay = float(p), float(fp)
    tangent_ends = [(float(lo), float(k * lo + b)), (float(hi), float(k * hi + b))]

    info: dict = {"slope": k, "intercept": b, "samples": SAMPLES}

    ys = [y for _, y in curve] + [y for _, y in tangent_ends] + [ay]

    if dx is not None:
        dx = exact(dx)
        if not dx:
            raise ValueError("secant increment dx must be nonzero")
        info["delta_y"] = dy = increment(f, p, dx)
        info["differential"] = dl = k * dx
        bx, by, dyl_y = float(p + dx), float(fp + dy), float(fp + dl)
        ys += [by, dyl_y]

    y_lo, y_hi = min(ys), max(ys)
    # A flat figure pads 1.0 each way, or 5% of |y| where y is so large that it absorbs 1.0.
    pad = (y_hi - y_lo) * 0.05 or (1.0 if y_lo - 1.0 < y_hi + 1.0 else abs(y_hi) * 0.05)
    y_lo -= pad
    y_hi += pad

    plot_w = width - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = height - MARGIN_TOP - MARGIN_BOTTOM
    x_span, y_span = float(hi) - float(lo), y_hi - y_lo
    sx, sy = plot_w / (x_span or math.nan), plot_h / (y_span or math.nan)
    tx = MARGIN_LEFT - sx * float(lo)
    ty = MARGIN_TOP + sy * y_hi

    def px(x: float) -> float:
        return tx + sx * x

    def py(y: float) -> float:
        return ty - sy * y

    data: list[str] = []
    if y_lo < 0 < y_hi:
        data.append(_line("x-axis", lo, 0, hi, 0, "#bbbbbb", 1))
    if float(lo) < 0 < float(hi):
        data.append(_line("y-axis", 0, y_lo, 0, y_hi, "#bbbbbb", 1))

    path = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in curve)
    data.append(
        f'<path id="curve" d="{path}" fill="none" stroke="{CURVE_COLOR}" '
        f'stroke-width="2" {NSS}/>'
    )
    (tx1, ty1), (tx2, ty2) = tangent_ends
    data.append(_line("tangent", tx1, ty1, tx2, ty2, TANGENT_COLOR, 2))

    markers = [(ax, ay, TANGENT_COLOR)]
    label_points = [("A", px(ax) - 16, py(ay) - 8, TANGENT_COLOR)]
    if dx is not None:
        dashed = 'stroke-dasharray="6 4" '
        data += [
            _line("secant", ax, ay, bx, by, SECANT_COLOR, 2),
            _line("delta-x", ax, ay, bx, ay, ANNOTATION_COLOR, 1.5, dashed),
            _line("delta-y", bx, ay, bx, by, ANNOTATION_COLOR, 1.5, dashed),
            _line("differential", bx, ay, bx, dyl_y, DIFFERENTIAL_COLOR, 3),
        ]
        markers.append((bx, by, SECANT_COLOR))
        label_points += [
            ("B", px(bx) + 8, py(by) - 6, SECANT_COLOR),
            ("Δx", (px(ax) + px(bx)) / 2, py(ay) + 16, ANNOTATION_COLOR),
            ("Δy", px(bx) + 8, (py(ay) + py(by)) / 2, ANNOTATION_COLOR),
            ("dy", px(bx) - 26, (py(ay) + py(dyl_y)) / 2, DIFFERENTIAL_COLOR),
        ]

    # Data coordinates are finite (a float conversion that overflows raises);
    # the transform and the marked points' pixel positions must be too.
    pixels = [c for _, lx, ly, _ in label_points for c in (lx, ly)]
    if not all(map(math.isfinite, (x_span, y_span, sx, sy, tx, ty, *pixels))):
        raise ValueError(
            f"plot range {lo},{hi} has no finite SVG geometry for p = {p}: x span {x_span!r}, "
            f"y span {y_span!r}, scale ({sx!r}, {sy!r}), offset ({tx!r}, {ty!r})"
        )

    labels = [
        f'<circle cx="{_fmt(px(mx))}" cy="{_fmt(py(my))}" r="4" fill="{color}"/>'
        for mx, my, color in markers
    ]
    labels += [
        f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" fill="{color}">{text}</text>'
        for text, lx, ly, color in label_points
    ]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect id="background" x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<g id="data" transform="translate({_fmt(tx)} {_fmt(ty)}) scale({_fmt(sx)} {_fmt(-sy)})">',
        *data,
        "</g>",
        '<g id="labels" font-family="sans-serif" font-size="14">',
        *labels,
        "</g>",
        f'<rect id="frame" x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" fill="none" stroke="#888888"/>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n", info
