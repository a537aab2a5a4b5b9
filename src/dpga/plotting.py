"""Minimal SVG line plots for metrics CSVs. No plotting dependencies."""

from __future__ import annotations

import math
import re

from .errors import ConfigurationError

WIDTH, HEIGHT = 800.0, 500.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 160.0, 30.0, 50.0

PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
N_TICKS = 5
Y_LABEL = "eval_acc"
# Characters XML 1.0 does not allow in a document, escaped or not.
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _xml_text(text: str) -> str:
    """text as XML character data: markup escaped, U+FFFD for the rest.
    (xml.sax.saxutils.escape would import urllib.request, about 6 MB.)"""
    text = _NOT_XML.sub("\ufffd", text)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float) -> list[float]:
    # The fraction first: (hi - lo) * i can overflow where the span cannot.
    return [lo + (hi - lo) * (i / (N_TICKS - 1)) for i in range(N_TICKS)]


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _frame(lo: float, hi: float, pad: float) -> tuple[float, float]:
    """The drawn range of finite data from lo to hi: widened by pad of its
    span on each side, and a flat range by its magnitude (at least 1)."""
    top = lo + max(1.0, abs(lo)) if hi == lo else hi
    margin = pad * (top - lo)
    start, stop = lo - margin, top + margin
    if not (math.isfinite(stop - start) and stop > start):
        raise ConfigurationError(f"cannot plot values from {_fmt(lo)} to "
                                 f"{_fmt(hi)}: the axis span overflows")
    return start, stop


def render_plot(series: list[tuple[str, list[float], list[float]]],
                x_label: str) -> str:
    """Render one polyline per (label, xs, ys) series of Y_LABEL into an
    SVG string; each label is written as XML text."""
    xs_all, ys_all = zip(*(p for _, xs, ys in series for p in zip(xs, ys)))
    if not all(map(math.isfinite, xs_all + ys_all)):
        raise ConfigurationError(f"cannot plot a non-finite {x_label} or {Y_LABEL}")
    x_lo, x_hi = _frame(min(xs_all), max(xs_all), 0.0)
    y_lo, y_hi = _frame(min(ys_all), max(ys_all), 0.03)

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * inner_w

    def sy(y: float) -> float:
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * inner_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
           f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
           f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>']
    axis = (f'M {MARGIN_L:g} {MARGIN_T:g} L {MARGIN_L:g} {MARGIN_T + inner_h:g} '
            f'L {MARGIN_L + inner_w:g} {MARGIN_T + inner_h:g}')
    out.append(f'<path d="{axis}" fill="none" stroke="black" stroke-width="1"/>')
    for x in _ticks(x_lo, x_hi):
        px = sx(x)
        out.append(f'<line x1="{px:.2f}" y1="{MARGIN_T + inner_h:g}" '
                   f'x2="{px:.2f}" y2="{MARGIN_T + inner_h + 5:g}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{MARGIN_T + inner_h + 20:g}" '
                   f'font-size="12" text-anchor="middle">{_fmt(x)}</text>')
    for y in _ticks(y_lo, y_hi):
        py = sy(y)
        out.append(f'<line x1="{MARGIN_L - 5:g}" y1="{py:.2f}" '
                   f'x2="{MARGIN_L:g}" y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{MARGIN_L - 8:g}" y="{py + 4:.2f}" '
                   f'font-size="12" text-anchor="end">{_fmt(y)}</text>')
    out.append(f'<text x="{MARGIN_L + inner_w / 2:g}" y="{HEIGHT - 10:g}" '
               f'font-size="13" text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="18" y="{MARGIN_T + inner_h / 2:g}" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{MARGIN_T + inner_h / 2:g})">{Y_LABEL}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.8"/>')
        ly = MARGIN_T + 16 + 18 * i
        lx = MARGIN_L + inner_w + 12
        out.append(f'<line x1="{lx:g}" y1="{ly - 4:g}" x2="{lx + 22:g}" '
                   f'y2="{ly - 4:g}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28:g}" y="{ly:g}" font-size="12">{_xml_text(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
