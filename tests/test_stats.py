import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from crngame.stats import _ndtri, ratio_bounds, wilson_interval


def _ulp_band(center: float, steps: int) -> np.ndarray:
    """``center`` and its ``steps`` nearest float neighbours on each side."""
    up, down = [center], [center]
    for _ in range(steps):
        up.append(math.nextafter(up[-1], math.inf))
        down.append(math.nextafter(down[-1], -math.inf))
    return np.array(down[:0:-1] + up)


class TestNdtri:
    """The pure-Python quantile reproduces scipy.special.ndtri bit for bit."""

    @staticmethod
    def _grid() -> np.ndarray:
        edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)]
        parts = [np.linspace(0.0, 1.0, 700_001)]
        for edge in edges:  # the branch switches: |y - 0.5| = 1/2 - e^-2, x = 8
            parts.append(_ulp_band(edge, 2_000))
            parts.append(edge * (1.0 + np.linspace(-1e-3, 1e-3, 40_001)))
        parts.append(np.logspace(-320.0, -0.5, 100_001))
        parts.append(1.0 - np.logspace(-17.0, -0.5, 100_001))
        parts.append(np.array([0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0), 0.5,
                               0.995, 0.975, 1e-300, 1.0 - 2.0**-53]))
        return np.concatenate(parts)

    def test_bit_identical_to_scipy(self):
        ys = self._grid()
        assert ys.size >= 10**6
        assert ((ys >= 0.0) & (ys <= 1.0)).all()
        ours = np.array([_ndtri(y) for y in ys.tolist()])
        theirs = ndtri(ys)
        differ = np.flatnonzero(ours.view(np.int64) != theirs.view(np.int64))
        assert differ.size == 0, (
            f"{differ.size} mismatches, first at y = {ys[differ[0]]!r}: "
            f"{ours[differ[0]]!r} != {theirs[differ[0]]!r}")

    def test_known_values(self):
        assert _ndtri(0.995) == 2.5758293035489004
        assert _ndtri(0.5) == 0.0
        assert _ndtri(0.0) == -math.inf
        assert _ndtri(1.0) == math.inf

    @pytest.mark.parametrize("y", [-1.0, -5e-324, math.nextafter(1.0, 2.0), 2.0,
                                   math.inf, -math.inf, math.nan])
    def test_out_of_range_is_nan(self, y):
        assert math.isnan(_ndtri(y))
        assert math.isnan(ndtri(y))


class TestWilson:
    def test_hand_computed_value(self):
        # 7/10 at 95%: z = 1.959964; textbook Wilson bounds
        lo, hi = wilson_interval(7, 10, 0.95)
        z = norm.ppf(0.975)
        denom = 1 + z * z / 10
        center = (0.7 + z * z / 20) / denom
        half = z * math.sqrt(0.7 * 0.3 / 10 + z * z / 400) / denom
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)
        assert lo == pytest.approx(0.3967781, abs=1e-6)
        assert hi == pytest.approx(0.8922087, abs=1e-6)

    def test_boundaries_clamped(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0.0 < hi < 0.25
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and 0.75 < lo < 1.0

    def test_interval_contains_point_estimate(self):
        for s, n in [(1, 10), (5, 10), (9, 10), (250, 500)]:
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi

    def test_width_shrinks_with_trials(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(50, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_higher_confidence_widens(self):
        a = wilson_interval(30, 100, 0.9)
        b = wilson_interval(30, 100, 0.999)
        assert b[1] - b[0] > a[1] - a[0]

    def test_coverage_on_binomial_grid(self):
        # the 99% interval should cover the true p for the vast majority of
        # outcomes; check exact binomial coverage at p = 0.3, n = 60
        from scipy.stats import binom
        n, p = 60, 0.3
        covered = sum(binom.pmf(k, n, p)
                      for k in range(n + 1)
                      if wilson_interval(k, n, 0.99)[0] <= p <= wilson_interval(k, n, 0.99)[1])
        assert covered >= 0.985

    @pytest.mark.parametrize("bad", [(-1, 10), (11, 10)])
    def test_rejects_bad_successes(self, bad):
        with pytest.raises(ValueError):
            wilson_interval(*bad)

    def test_matches_scipy_quantile_reference(self):
        for confidence in [1e-9, 0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999,
                           0.9999999, 1.0 - 1e-12]:
            z = float(ndtri(0.5 + confidence / 2.0))
            for trials in [1, 2, 7, 30, 1000, 10000]:
                n = float(trials)
                for successes in sorted({0, 1, trials // 3, trials // 2,
                                         trials - 1, trials}):
                    phat = successes / n
                    z2 = z * z
                    denom = 1.0 + z2 / n
                    center = (phat + z2 / (2.0 * n)) / denom
                    half = z * ((phat * (1.0 - phat) / n
                                 + z2 / (4.0 * n * n)) ** 0.5) / denom
                    expected = (max(0.0, center - half), min(1.0, center + half))
                    assert wilson_interval(successes, trials, confidence) == expected

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 2, 1.0)


class TestRatioBounds:
    def test_conservative_pairing(self):
        bounds = ratio_bounds(0.7, 0.8, 0.9, 0.95)
        assert bounds == (0.7 / 0.95, 0.8 / 0.9)

    def test_undefined_when_baseline_floor_nonpositive(self):
        assert ratio_bounds(0.1, 0.2, 0.0, 0.3) is None
