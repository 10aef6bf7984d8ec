"""Binomial interval estimation for Monte Carlo success frequencies."""

from __future__ import annotations

from scipy.special import ndtri


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Clamped to [0, 1]; well behaved at 0 and ``trials`` successes.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    z = float(ndtri(0.5 + confidence / 2.0))  # the standard normal quantile
    n = float(trials)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * ((phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) ** 0.5) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def ratio_bounds(with_lo: float, with_hi: float, without_lo: float,
                 without_hi: float) -> tuple[float, float] | None:
    """Conservative interval for a ratio of two success probabilities.

    Lower bound pairs the treatment's lower limit with the baseline's upper
    limit and vice versa. Returns None when the baseline's lower limit is
    not positive (the ratio is then undefined).
    """
    if without_lo <= 0.0:
        return None
    return (with_lo / without_hi, with_hi / without_lo)
