"""Direct tests for benchmarks/_bench_utils (the emit helpers)."""

from __future__ import annotations

import pathlib
import sys

import pytest

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS_DIR))

import _bench_utils  # noqa: E402  (needs the path tweak above)


@pytest.fixture
def output_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(_bench_utils, "OUTPUT_DIR", tmp_path)
    return tmp_path


def test_emit_writes_text_exhibit(output_dir, capsys):
    _bench_utils.emit("demo", "line one\nline two")
    assert (output_dir / "demo.txt").read_text() == "line one\nline two\n"
    assert "line one" in capsys.readouterr().out
