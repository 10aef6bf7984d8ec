"""Binomial interval estimation for Monte Carlo success frequencies."""

from __future__ import annotations

import math

# Cephes ndtri (S. L. Moshier), the code behind scipy.special.ndtri, ported
# with the same branches, coefficients and Horner order so that every
# quantile, and so every printed interval, matches scipy's bit for bit.
# statistics.NormalDist.inv_cdf is a different algorithm and differs in the
# last bit on most inputs.
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)
# approximation for 0 <= |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# approximation for interval z = sqrt(-2 log y) between 2 and 8
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# approximation for interval z = sqrt(-2 log y) between 8 and 64
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """``coef[0]*x^n + ... + coef[n]`` by Horner's rule."""
    a = coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """As :func:`_polevl` with an implied leading coefficient of 1.0."""
    a = x + coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _ndtri(y0: float) -> float:
    """Standard normal quantile: the ``x`` with ``Phi(x) = y0``."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate, y = True, y0
    if y > 1.0 - _EXPM2:
        y, negate = 1.0 - y, False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


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
    z = _ndtri(0.5 + confidence / 2.0)  # the standard normal quantile
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
