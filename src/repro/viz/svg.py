"""A minimal SVG document builder.

Just enough vector drawing for the viewers: rectangles, lines, polylines,
text, groups, and per-element ``<title>`` tooltips.  No dependencies; output
is a standalone ``.svg`` file.

Numbers are formatted straight into the markup — a float's ``repr`` holds
nothing to escape.  Strings (colours, fonts, labels, tooltips) always go
through :func:`xml_text` / :func:`xml_attr`, which also replace the code
points XML 1.0 forbids, so a trace's names cannot make the document
malformed.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

from repro.core.atomicio import atomic_write_text

#: Chart surface and ink tokens (light mode of the validated palette).
SURFACE = "#fcfcfb"
TEXT_PRIMARY = "#0b0b0b"
TEXT_SECONDARY = "#52514e"
GRID = "#e8e7e4"
AXIS = "#b9b8b2"


#: Code points outside XML 1.0's ``Char`` production (C0 controls other
#: than tab, newline and carriage return; surrogates; U+FFFE and U+FFFF):
#: no parser accepts them, escaped or not, so they become U+FFFD.
_FORBIDDEN = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_NOT_XML = re.compile(f"[{_FORBIDDEN}]")
#: What a string must hold before escaping or replacing can change it.
_NOT_PLAIN = re.compile(f'[{_FORBIDDEN}&<>"\t\n\r]')


def xml_text(text: str) -> str:
    """``text`` as XML character data."""
    if _NOT_PLAIN.search(text) is None:
        return text
    return escape(_NOT_XML.sub("\ufffd", text))


def xml_attr(text: str) -> str:
    """``text`` as a quoted XML attribute value."""
    if _NOT_PLAIN.search(text) is None:
        return f'"{text}"'
    return quoteattr(_NOT_XML.sub("\ufffd", text))


def bar_elements(x, y, w, h, fill, opacity, title) -> list[str]:
    """One ``<rect>`` per bar, as :meth:`SvgCanvas.rect` writes it with
    ``rx=1.5``, from columns (lists): ``x`` and ``w`` (not negative) as
    Python floats, rounded here; ``y`` and ``h`` written as they are (row
    geometry: halves, which two decimals hold); ``fill`` already quoted
    (:func:`xml_attr`), ``opacity`` written when below 1, ``title`` already
    escaped (:func:`xml_text`; empty: no tooltip)."""
    return [
        '<rect x="%r" y="%r" width="%r" height="%r" fill=%s rx="1.5"%s%s' % (
            round(x, 2), y, round(w, 2), h, fill,
            f' opacity="{opacity}"' if opacity < 1.0 else "",
            f"><title>{title}</title></rect>" if title else "/>",
        )
        for x, y, w, h, fill, opacity, title in zip(x, y, w, h, fill, opacity, title)
    ]


def path_element(d: str, *, fill: str, opacity: float | None = None) -> str:
    """A filled ``<path>`` from a prebuilt ``d`` string.

    One ``<path>`` can carry thousands of rectangular subpaths, which is
    how dense heat strips stay cheap: one element per style, not one per
    cell."""
    op = f' opacity="{opacity}"' if opacity is not None else ""
    return f'<path d="{d}" fill={xml_attr(fill)}{op}/>'


class SvgCanvas:
    """Accumulates SVG elements and serializes a complete document."""

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self._parts: list[str] = []
        self.rect(0, 0, width, height, fill=SURFACE)

    def rect(
        self,
        x: float,
        y: float,
        w: float,
        h: float,
        *,
        fill: str,
        rx: float | None = None,
        stroke: str | None = None,
        stroke_width: float | None = None,
        opacity: float | None = None,
        title: str | None = None,
    ) -> None:
        """Add a rectangle (optionally rounded / stroked / tooltipped)."""
        attrs = (
            f'x="{round(x, 2)}" y="{round(y, 2)}" width="{round(max(w, 0), 2)}" '
            f'height="{round(max(h, 0), 2)}" fill={xml_attr(fill)}'
        )
        if rx is not None:
            attrs += f' rx="{rx}"'
        if stroke is not None:
            attrs += f" stroke={xml_attr(stroke)}"
        if stroke_width is not None:
            attrs += f' stroke-width="{stroke_width}"'
        if opacity is not None:
            attrs += f' opacity="{opacity}"'
        if title:
            self._parts.append(f"<rect {attrs}><title>{xml_text(title)}</title></rect>")
        else:
            self._parts.append(f"<rect {attrs}/>")

    def extend(self, elements: Iterable[str]) -> None:
        """Add prebuilt elements — markup the caller formatted and escaped
        (:func:`bar_elements`, :func:`path_element`)."""
        self._parts.extend(elements)

    def line(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        *,
        stroke: str,
        stroke_width: float = 1.0,
        dash: str | None = None,
        opacity: float | None = None,
    ) -> None:
        """Add a line segment."""
        attrs = (
            f'x1="{round(x1, 2)}" y1="{round(y1, 2)}" x2="{round(x2, 2)}" '
            f'y2="{round(y2, 2)}" stroke={xml_attr(stroke)} stroke-width="{stroke_width}"'
        )
        if dash is not None:
            attrs += f" stroke-dasharray={xml_attr(dash)}"
        if opacity is not None:
            attrs += f' opacity="{opacity}"'
        self._parts.append(f"<line {attrs}/>")

    def polyline(
        self, points: list[tuple[float, float]], *, stroke: str, stroke_width: float = 2.0
    ) -> None:
        """Add an unfilled polyline."""
        pts = " ".join(f"{round(x, 2)},{round(y, 2)}" for x, y in points)
        self._parts.append(
            f'<polyline points="{pts}" fill="none" stroke={xml_attr(stroke)} '
            f'stroke-width="{stroke_width}"/>'
        )

    def polygon(self, points: list[tuple[float, float]], *, fill: str) -> None:
        """Add a filled polygon (arrowheads)."""
        pts = " ".join(f"{round(x, 2)},{round(y, 2)}" for x, y in points)
        self._parts.append(f'<polygon points="{pts}" fill={xml_attr(fill)}/>')

    def text(
        self,
        x: float,
        y: float,
        content: str,
        *,
        size: int = 12,
        fill: str = TEXT_PRIMARY,
        anchor: str = "start",
        weight: str | None = None,
        family: str = "system-ui, sans-serif",
    ) -> None:
        """Add a text label (ink tokens, never series colors)."""
        attrs = (
            f'x="{round(x, 2)}" y="{round(y, 2)}" font-size="{size}" '
            f"fill={xml_attr(fill)} text-anchor={xml_attr(anchor)}"
        )
        if weight is not None:
            attrs += f" font-weight={xml_attr(weight)}"
        self._parts.append(
            f"<text {attrs} font-family={xml_attr(family)}>{xml_text(content)}</text>"
        )

    def to_string(self) -> str:
        """The complete SVG document."""
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            + "\n".join(self._parts)
            + "\n</svg>\n"
        )

    def write(self, path: str | Path) -> Path:
        """Write the document to ``path`` (crash-safe: a write that fails
        leaves any previous file whole)."""
        return atomic_write_text(path, self.to_string())
