"""Hand-built SVG figures: confusion heatmap, ROC curves, P/R/F1 bars,
and the three-panel timeline. No plotting dependency; output is plain XML
with fixed number formatting so reruns are byte-identical."""

from __future__ import annotations

import datetime as dt
from typing import Sequence
from xml.sax.saxutils import escape

from .corpus import CATEGORY_NAMES
from .metrics import ConfusionMatrix, EvalReport
from .timeline import DayShares, PeakReport, TimelineSeries

CATEGORY_COLORS = ("#1f77b4", "#7f7f7f", "#d62728", "#2ca02c")
FONT = "font-family=\"Helvetica,Arial,sans-serif\""


def _f(v: float) -> str:
    return f"{v:.2f}"


def _text(x: float, y: float, s: str, size: int = 12, anchor: str = "start",
          fill: str = "#000", extra: str = "") -> str:
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" font-size="{size}" text-anchor="{anchor}" '
        f'fill="{fill}" {FONT} {extra}>{escape(s)}</text>'
    )


def _line(x1: float, y1: float, x2: float, y2: float, color: str = "#333",
          width: float = 1.0, dash: str = "") -> str:
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{color}" stroke-width="{width}"{d}/>'
    )


def _polyline(points: Sequence[tuple[float, float]], color: str, width: float = 1.5) -> str:
    coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{width}"/>'


def _document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>'
    )
    return head + "".join(body) + "</svg>\n"


def confusion_svg(cm: ConfusionMatrix) -> str:
    """4x4 heatmap, rows gold, columns predicted, counts printed in cells."""
    cell = 72
    left, top = 130, 70
    counts = cm.counts
    peak = max(1, int(counts.max()))
    body = [_text(left + 2 * cell, 28, "Confusion matrix", 15, "middle")]
    body.append(_text(left + 2 * cell, 48, "rows: gold, columns: predicted", 11, "middle", "#555"))
    for c in range(4):
        body.append(_text(left + c * cell + cell / 2, top - 8, CATEGORY_NAMES[c], 10, "middle"))
        body.append(_text(left - 8, top + c * cell + cell / 2 + 4, CATEGORY_NAMES[c], 10, "end"))
    for g in range(4):
        for p in range(4):
            n = int(counts[g, p])
            # Linear white-to-blue ramp on the cell count.
            t = n / peak
            r = int(255 - t * (255 - 31))
            gr = int(255 - t * (255 - 119))
            b = int(255 - t * (255 - 180))
            x, y = left + p * cell, top + g * cell
            body.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({r},{gr},{b})" stroke="#999" stroke-width="0.5"/>'
            )
            ink = "#fff" if t > 0.55 else "#000"
            body.append(_text(x + cell / 2, y + cell / 2 + 5, str(n), 13, "middle", ink))
    return _document(left + 4 * cell + 40, top + 4 * cell + 30, body)


def roc_svg(report: EvalReport) -> str:
    """All four one-vs-rest ROC curves with an AUC legend."""
    size, left, top = 420, 70, 50
    body = [_text(left + size / 2, 26, "One-vs-rest ROC curves", 15, "middle")]
    body.append(
        f'<rect x="{left}" y="{top}" width="{size}" height="{size}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for i in range(5):
        frac = i / 4
        x = left + frac * size
        y = top + size - frac * size
        body.append(_line(x, top + size, x, top + size + 5))
        body.append(_text(x, top + size + 18, f"{frac:.2f}", 10, "middle"))
        body.append(_line(left - 5, y, left, y))
        body.append(_text(left - 8, y + 4, f"{frac:.2f}", 10, "end"))
    body.append(_text(left + size / 2, top + size + 38, "False positive rate", 12, "middle"))
    body.append(_text(18, top + size / 2, "True positive rate", 12, "middle",
                      extra=f'transform="rotate(-90 18 {_f(top + size / 2)})"'))
    body.append(_line(left, top + size, left + size, top, "#aaa", 1.0, "4,4"))
    for c in range(4):
        curve = report.roc_curves[c]
        pts = [(left + x * size, top + size - y * size) for x, y in zip(curve.fprs, curve.tprs)]
        body.append(_polyline(pts, CATEGORY_COLORS[c], 1.8))
    lx, ly = left + size - 200, top + size - 86
    body.append(f'<rect x="{lx}" y="{ly}" width="190" height="76" fill="#ffffff" '
                f'stroke="#999" stroke-width="0.5"/>')
    for c in range(4):
        y = ly + 16 + c * 17
        body.append(_line(lx + 8, y - 4, lx + 30, y - 4, CATEGORY_COLORS[c], 2.5))
        body.append(_text(lx + 36, y, f"{CATEGORY_NAMES[c]} (AUC = {report.auc[c]:.3f})", 10))
    return _document(left + size + 40, top + size + 56, body)


def prf_bars_svg(report: EvalReport) -> str:
    """Per-class precision, recall, and F1 as grouped bars."""
    metric_colors = ("#4c72b0", "#dd8452", "#55a868")
    metric_names = ("precision", "recall", "F1")
    bar_w, gap, group_gap = 26, 6, 40
    group_w = 3 * bar_w + 2 * gap
    left, top, h = 70, 60, 300
    width = left + 4 * group_w + 3 * group_gap + 40
    body = [_text(left + (width - left) / 2 - 20, 26, "Per-class precision / recall / F1", 15, "middle")]
    for i in range(6):
        frac = i / 5
        y = top + h - frac * h
        body.append(_line(left - 5, y, left + 4 * group_w + 3 * group_gap + 10, y, "#ddd", 0.5))
        body.append(_text(left - 8, y + 4, f"{frac:.1f}", 10, "end"))
    values = (report.precision, report.recall, report.f1)
    for c in range(4):
        gx = left + c * (group_w + group_gap)
        for m in range(3):
            v = values[m][c]
            x = gx + m * (bar_w + gap)
            bh = v * h
            body.append(
                f'<rect x="{_f(x)}" y="{_f(top + h - bh)}" width="{bar_w}" '
                f'height="{_f(bh)}" fill="{metric_colors[m]}"/>'
            )
            body.append(_text(x + bar_w / 2, top + h - bh - 5, f"{v:.2f}", 9, "middle"))
        body.append(_text(gx + group_w / 2, top + h + 18, CATEGORY_NAMES[c], 11, "middle"))
    body.append(_text(left, top + h + 44,
                      f"macro F1 = {report.macro_f1:.4f}   weighted F1 = {report.weighted_f1:.4f}   "
                      f"accuracy = {report.accuracy:.4f}", 11))
    lx = left + 4 * group_w + 3 * group_gap - 150
    for m in range(3):
        y = top + 14 + m * 16
        body.append(f'<rect x="{lx}" y="{y - 9}" width="12" height="10" fill="{metric_colors[m]}"/>')
        body.append(_text(lx + 18, y, metric_names[m], 10))
    return _document(width, top + h + 60, body)


def _x_positions(n: int, left: float, width: float) -> list[float]:
    if n == 1:
        return [left + width / 2]
    return [left + i * width / (n - 1) for i in range(n)]


def _date_ticks(body: list[str], dates: list[dt.date], xs: list[float], y: float) -> None:
    n = len(xs)
    step = max(1, (n + 7) // 8)
    for i in range(0, n, step):
        body.append(_line(xs[i], y, xs[i], y + 4, "#333", 0.8))
        body.append(_text(xs[i], y + 15, dates[i].isoformat(), 8, "middle"))


def timeline_svg(
    series: TimelineSeries,
    anti_shares: DayShares,
    peaks: PeakReport,
    share_label: str,
) -> str:
    """Three stacked panels: total volume, per-category counts, anti share."""
    width, left = 780, 80
    panel_h, panel_gap, top0 = 150, 56, 46
    plot_w = width - left - 30
    dates, counts = series.dates, series.bins.tolist()
    xs = _x_positions(len(dates), left, plot_w)
    body = [_text(width / 2, 24, "Tweet volume and stance timeline", 15, "middle")]

    def panel_frame(top: float, title: str, ymax: float, fmt: str) -> None:
        body.append(_text(left, top - 6, title, 11))
        body.append(f'<rect x="{left}" y="{_f(top)}" width="{plot_w}" height="{panel_h}" '
                    f'fill="none" stroke="#333" stroke-width="0.8"/>')
        for i in range(4):
            frac = i / 3
            y = top + panel_h - frac * panel_h
            body.append(_line(left - 4, y, left, y))
            body.append(_text(left - 7, y + 3, format(ymax * frac, fmt), 9, "end"))

    # Panel (a): total daily volume.
    top = top0
    totals = [sum(row) for row in counts]
    ymax_a = max(1, max(totals)) * 1.05
    panel_frame(top, "(a) daily tweet volume", ymax_a, ".0f")
    body.append(_polyline(
        [(x, top + panel_h - t / ymax_a * panel_h) for x, t in zip(xs, totals)], "#333", 1.5))
    _date_ticks(body, dates, xs, top + panel_h)

    # Panel (b): per-category daily counts.
    top = top0 + panel_h + panel_gap
    ymax_b = max(1, max(map(max, counts))) * 1.05
    panel_frame(top, "(b) per-category daily counts", ymax_b, ".0f")
    for c in range(4):
        pts = [(x, top + panel_h - row[c] / ymax_b * panel_h) for x, row in zip(xs, counts)]
        body.append(_polyline(pts, CATEGORY_COLORS[c], 1.3))
    for c in range(4):
        lx = left + plot_w - 420 + c * 105
        body.append(_line(lx, top + 12, lx + 16, top + 12, CATEGORY_COLORS[c], 2.5))
        body.append(_text(lx + 20, top + 15, CATEGORY_NAMES[c], 9))
    _date_ticks(body, dates, xs, top + panel_h)

    # Panel (c): anti-vaccine share with detected peaks.
    top = top0 + 2 * (panel_h + panel_gap)
    values = anti_shares.percent.tolist()
    ymax_c = max(10.0, max(values) * 1.2)
    panel_frame(top, f"(c) anti-vaccine share, % ({share_label})", ymax_c, ".1f")

    def share_y(v: float) -> float:
        return top + panel_h - v / ymax_c * panel_h

    body.append(_polyline([(x, share_y(v)) for x, v in zip(xs, values)], CATEGORY_COLORS[2], 1.6))
    date_to_x = dict(zip(dates, xs))
    for p in peaks.local_maxima:
        x = date_to_x.get(p.date)
        if x is None:
            continue
        y = share_y(p.share)
        body.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="3.5" fill="{CATEGORY_COLORS[2]}"/>')
        body.append(_line(x, y - 6, x, top + 16, "#888", 0.7, "2,3"))
        body.append(_text(x, top + 12, p.date.isoformat(), 9, "middle", "#a00"))
    _date_ticks(body, dates, xs, top + panel_h)

    return _document(width, top + panel_h + 40, body)
