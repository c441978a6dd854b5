"""Unit tests for the valid-configuration assumption builders."""

import pytest

from repro.check.configs import (
    reduction_assumptions, suite_assumptions, transpose_assumptions,
)
from repro.param.geometry import Geometry
from repro.smt import BVVar, CheckResult, Eq, Solver


def geo_inputs():
    geo = Geometry.create(8)
    inputs = {"width": BVVar("cfg.w", 8), "height": BVVar("cfg.h", 8)}
    return geo, inputs


def sat(*terms):
    s = Solver()
    s.add(*terms)
    return s.check() is CheckResult.SAT


class TestTranspose:
    def test_square_included_by_default(self):
        geo, inputs = geo_inputs()
        terms = transpose_assumptions(geo, inputs)
        assert not sat(*geo.base_assumptions(), *terms,
                       Eq(geo.bdim["x"], 4), Eq(geo.bdim["y"], 2))

    def test_square_droppable(self):
        geo, inputs = geo_inputs()
        terms = transpose_assumptions(geo, inputs, square=False)
        assert sat(*geo.base_assumptions(), *terms,
                   Eq(geo.bdim["x"], 4), Eq(geo.bdim["y"], 2),
                   Eq(geo.gdim["x"], 1), Eq(geo.gdim["y"], 1),
                   Eq(inputs["width"], 4), Eq(inputs["height"], 2))

    def test_covering_pins_extents(self):
        geo, inputs = geo_inputs()
        terms = transpose_assumptions(geo, inputs)
        # width != gdim.x * bdim.x is excluded
        assert not sat(*geo.base_assumptions(), *terms,
                       Eq(geo.bdim["x"], 2), Eq(geo.bdim["y"], 2),
                       Eq(geo.gdim["x"], 2), Eq(geo.gdim["y"], 2),
                       Eq(inputs["width"], 5))

    def test_wraparound_extents_excluded(self):
        geo, inputs = geo_inputs()
        terms = transpose_assumptions(geo, inputs)
        # 32 x 32 = 1024 cells > 256: no valid 8-bit configuration
        assert not sat(*geo.base_assumptions(), *terms,
                       Eq(inputs["width"], 32), Eq(inputs["height"], 32))


class TestReduction:
    def test_pow2_block(self):
        geo, _ = geo_inputs()
        terms = reduction_assumptions(geo, {})
        assert sat(*geo.base_assumptions(), *terms, Eq(geo.bdim["x"], 8))
        assert not sat(*geo.base_assumptions(), *terms, Eq(geo.bdim["x"], 6))

    def test_overflow_guard(self):
        geo, _ = geo_inputs()
        terms = reduction_assumptions(geo, {})
        # bdim=128: 2*k*tid wraps in 8 bits -> excluded by bdim^2 <= 256
        assert not sat(*geo.base_assumptions(), *terms,
                       Eq(geo.bdim["x"], 128))
        assert sat(*geo.base_assumptions(), *terms, Eq(geo.bdim["x"], 16))

    def test_one_dimensional(self):
        geo, _ = geo_inputs()
        terms = reduction_assumptions(geo, {})
        assert not sat(*geo.base_assumptions(), *terms,
                       Eq(geo.bdim["y"], 2))


class TestRegistry:
    def test_known_pairs(self):
        assert suite_assumptions("Transpose") is transpose_assumptions
        assert suite_assumptions("Reduction") is reduction_assumptions

    def test_unknown_pair_raises(self):
        # no builder would check every launch and report its bugs
        for name in ("Nonexistent", "Transpse", "MatMul"):
            with pytest.raises(KeyError, match=name):
                suite_assumptions(name)
