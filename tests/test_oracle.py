"""Tests for the brute-force bridge-length reference."""

import math

import numpy as np
import pytest

from bridgelen import cell_metrics, oracle_bridge_length
from bridgelen.oracle import min_patch_extent

from conftest import make_set, random_set


class TestKnownValues:
    def test_unit_grid(self, z2):
        assert oracle_bridge_length(z2, 5) == pytest.approx(1.0)

    def test_bcc(self, bcc):
        assert oracle_bridge_length(bcc, 5) == pytest.approx(math.sqrt(3) / 2)

    def test_perturbed_integer_line(self):
        eps = 0.01
        pset = make_set(
            [[4.0]], [[0.0], [(1 + eps) / 4], [(2 + eps) / 4], [(3 + eps) / 4]]
        )
        assert oracle_bridge_length(pset) == pytest.approx(1 + eps, rel=1e-12)


class TestPatch:
    def test_extent_floor_enforced(self, z2):
        assert min_patch_extent(z2) == 5
        with pytest.raises(ValueError):
            oracle_bridge_length(z2, 4)


class TestProperties:
    def test_result_below_r_upper(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            pset = random_set(rng, n=int(rng.integers(1, 3)))
            r_upper = cell_metrics(pset.basis).r_upper
            assert oracle_bridge_length(pset) <= r_upper * (1 + 1e-9)

    def test_invariant_under_patch_growth(self):
        # a bigger patch may only confirm the same threshold
        rng = np.random.default_rng(62)
        for _ in range(10):
            pset = random_set(rng, n=2, m=2)
            k = min_patch_extent(pset)
            assert oracle_bridge_length(pset, k) == pytest.approx(
                oracle_bridge_length(pset, k + 2), rel=1e-12
            )
