"""Helpers shared by the benchmark files."""

from __future__ import annotations

import pathlib

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def emit(name: str, text: str) -> None:
    """Print a rendered exhibit and save it under benchmarks/output/."""
    print("\n" + text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


def emit_figure(name: str, figure) -> None:
    """Save a figure both as rendered text and as an SVG plot."""
    from repro.analysis.figures import render_figure
    from repro.analysis.svg import save_figure_svg

    emit(name, render_figure(figure))
    OUTPUT_DIR.mkdir(exist_ok=True)
    save_figure_svg(figure, str(OUTPUT_DIR / f"{name}.svg"))
