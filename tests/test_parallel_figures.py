"""Tests for the ASCII figure registry."""

from __future__ import annotations

import pytest

from repro.experiments import figure_ids, render_figure


class TestFigures:
    def test_registry_lists_six(self):
        assert figure_ids() == ["F1", "F2", "F3", "F4", "F5", "F6"]

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            render_figure("F99")

    def test_f6_renders_fast(self):
        out = render_figure("F6", scale="smoke", seed=0)
        assert "Lemmas 3-5" in out
        assert "bias s(c)" in out
        assert "minority mass" in out

    @pytest.mark.slow
    def test_f2_and_f4_render(self):
        for fid, needle in [("F2", "Theorem 2"), ("F4", "Lemma 10")]:
            out = render_figure(fid, scale="smoke", seed=0)
            assert needle in out
            assert "legend" in out

    @pytest.mark.slow
    def test_f1_f3_f5_render(self):
        for fid in ("F1", "F3", "F5"):
            out = render_figure(fid, scale="smoke", seed=0)
            assert "legend" in out
