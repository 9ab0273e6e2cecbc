"""Spectral and statistical analysis of delay traces.

Covers the read-out side of the experiment: peak amplitudes at the
phonon frequency and its second harmonic from detrended FFTs, Morlet
time-frequency maps as a picture, the shot-noise line fit, weighted by
the known chi-square sd of each burst variance, with a Normal interval
on its intercept, the scan noise, one scan analysis (scan_lifetimes)
that fits the model's damped lines to the mean trace and then the
variance trace at the mean's decay rate, and the closed-loop fit of the
squeezing coupling against a fluence series of second-harmonic
amplitudes. Whether a line is present, in predict's noiseless traces
and in scan's noisy ones alike, is decided here and only here: by
DampedLine.present, the chi-square of the line's fitted amplitude
against PRESENCE_CHI2. All of it is numpy and math only, so no command
loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .probe import ProbeSpec, amplitude_prefactor
from .states import squeezed_thermal_quadrature_variance

# Morlet width: sigma_t = DEFAULT_WAVELET_WIDTH / (2 pi f) at row frequency f.
DEFAULT_WAVELET_WIDTH = 8.0
# Order of the polynomial baseline removed before any spectrum or map.
_DETREND_ORDER = 3
# Half-width of the window a spectral peak is looked for in.
_PEAK_BINS = 3

# Quantum lower bound on the product of the two quadrature variances.
_PRODUCT_BOUND = 0.25 - 1e-9
# The fluence fit's Newton solve stops once a step or its bracket is this
# many ulps of mu_s wide, and fails after _FIT_MAX_STEPS steps.
_FIT_ULPS = 4
_FIT_MAX_STEPS = 100


class FitError(RuntimeError):
    """Nonlinear fit failed to converge."""


@dataclass(frozen=True)
class SpectrumResult:
    """Amplitude spectrum of a detrended trace.

    power holds the magnitude spectrum normalized so a pure cosine of
    amplitude A peaks at A (window loss corrected). peak_omega and
    peak_2omega are interpolated amplitudes at the nominal fundamental
    and its second harmonic, with the matching interpolated frequencies.
    """

    freqs: np.ndarray
    power: np.ndarray
    peak_omega: float
    peak_2omega: float
    peak_omega_freq: float
    peak_2omega_freq: float

    def __post_init__(self) -> None:
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(self.power < 0):
            raise ValueError("power must be non-negative")


def _as_trace(trace) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(trace, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("trace must be a sequence of (tau, value) rows")
    taus = arr[:, 0]
    values = arr[:, 1]
    if taus.size < 16:
        raise ValueError("need at least 16 trace points")
    steps = np.diff(taus)
    if np.any(steps <= 0):
        raise ValueError("delays must be strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ValueError("delay grid must be uniform")
    return taus, values


def _detrend(taus: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Normalized abscissa keeps the polynomial solve well conditioned.
    x = (taus - taus[0]) / (taus[-1] - taus[0])
    coef = np.polynomial.polynomial.polyfit(x, values, _DETREND_ORDER)
    return values - np.polynomial.polynomial.polyval(x, coef)


def detrended_trace(trace) -> np.ndarray:
    """(tau, value) rows with the polynomial baseline removed.

    Removing the relaxation background before time-frequency analysis
    matters twice over: it empties the low-frequency rows and it kills
    the start-to-end mismatch that otherwise rings across the whole
    spectrum as a wrap-around discontinuity.
    """
    taus, values = _as_trace(trace)
    return np.column_stack([taus, _detrend(taus, values)])


def interpolate_peak(
    freqs: np.ndarray, amps: np.ndarray, nominal: float
) -> tuple[float, float]:
    """Refined (frequency, amplitude) near a nominal frequency.

    Takes the maximum bin within _PEAK_BINS bins of the nominal one,
    skipping the DC bin and the last bin, and sharpens it with a
    log-domain parabola through the three surrounding bins, which
    removes most of the scalloping of off-bin tones.
    """
    df = freqs[1] - freqs[0]
    center = int(round(nominal / df))
    lo, hi = max(1, center - _PEAK_BINS), min(len(amps) - 1, center + _PEAK_BINS + 1)
    if lo >= hi:
        raise ValueError("nominal frequency outside the spectrum")
    j = lo + int(np.argmax(amps[lo:hi]))
    if 0 < j < len(amps) - 1 and amps[j - 1] > 0 and amps[j] > 0 and amps[j + 1] > 0:
        la, lb, lc = math.log(amps[j - 1]), math.log(amps[j]), math.log(amps[j + 1])
        denom = la - 2.0 * lb + lc
        if denom < 0:
            delta = 0.5 * (la - lc) / denom
            if abs(delta) <= 1.0:
                amp = math.exp(lb - 0.25 * (la - lc) * delta)
                return (j + delta) * df, amp
    return j * df, float(amps[j])


def detrend_and_fft(trace, fundamental_thz: float) -> SpectrumResult:
    """Amplitude spectrum of the oscillating part of a trace.

    A low-order polynomial baseline is removed first, so relaxation
    backgrounds do not bleed into the low-frequency bins. Frequencies
    are in THz for delays in ps.
    """
    taus, values = _as_trace(trace)
    n = taus.size
    spec = np.fft.rfft(_detrend(taus, values))
    amps = 2.0 * np.abs(spec) / n
    amps[0] *= 0.5
    if n % 2 == 0:
        amps[-1] *= 0.5
    dt = taus[1] - taus[0]
    freqs = np.fft.rfftfreq(n, d=dt)
    f1, a1 = interpolate_peak(freqs, amps, fundamental_thz)
    f2, a2 = interpolate_peak(freqs, amps, 2.0 * fundamental_thz)
    return SpectrumResult(
        freqs=freqs,
        power=amps,
        peak_omega=a1,
        peak_2omega=a2,
        peak_omega_freq=f1,
        peak_2omega_freq=f2,
    )


def morlet_power(trace, freqs: Sequence[float]) -> np.ndarray:
    """Morlet time-frequency power map, rows indexed by freqs.

    The analytic wavelet is applied in the frequency domain with unit
    amplitude response: a pure cosine of amplitude A gives |w| = A along
    its row, so the returned power is A^2. Row bandwidth scales as
    freq / DEFAULT_WAVELET_WIDTH.
    """
    taus, values = _as_trace(trace)
    target = np.asarray(freqs, dtype=float)
    if target.ndim != 1 or np.any(target <= 0):
        raise ValueError("freqs must be positive")
    n = taus.size
    dt = taus[1] - taus[0]
    grid = np.fft.fftfreq(n, d=dt)
    spec = np.fft.fft(values)
    sigma_t = DEFAULT_WAVELET_WIDTH / (2.0 * math.pi * target)
    # Analytic filter: positive frequencies only, amplitude 2 so that a
    # real cosine (half its weight at +f) returns unit response.
    filt = 2.0 * np.exp(
        -2.0 * math.pi ** 2 * sigma_t[:, None] ** 2 * (grid[None, :] - target[:, None]) ** 2
    )
    filt[:, grid <= 0] = 0.0
    rows = np.fft.ifft(spec[None, :] * filt, axis=1)
    return np.abs(rows) ** 2


def _burst_variance_sd(var, n_pulses: int):
    """sd of the ddof-1 variance of n_pulses Gaussian pulses of variance var.

    (N - 1) s^2 / var is chi-square with N - 1 dof, so s^2 has sd
    var sqrt(2/(N-1)).
    """
    return var * math.sqrt(2.0 / (n_pulses - 1))


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    intercept_stderr: float

    @property
    def intercept_ci95(self) -> float:
        """Half-width of the 95% interval on the intercept: the Normal
        0.975 quantile times its stderr."""
        return 1.959963984540054 * self.intercept_stderr


def fit_line(x, y, n_pulses: int) -> LineFit:
    """Line through burst variances y at x, weighted by their known sd.

    Each y is the ddof-1 variance of n_pulses Gaussian pulses, with sd
    _burst_variance_sd(line(x), n_pulses). The weights w = 1/sd come from
    the unweighted least-squares line; one weighted solve then gives the
    coefficients and their covariance, which is not rescaled by the
    residuals, so the intercept interval takes the Normal quantile.
    Raises FitError, naming the x, when the unweighted line is <= 0 at
    one of the points, where no variance can lie.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 points")
    design = np.column_stack([x, np.ones_like(x)])
    line = design @ np.linalg.lstsq(design, y, rcond=None)[0]
    if np.any(line <= 0.0):
        at = float(x[np.argmax(line <= 0.0)])
        raise FitError(f"line fit: the unweighted line is <= 0 at x = {at!r}")
    w = 1.0 / _burst_variance_sd(line, n_pulses)
    inv = np.linalg.pinv(design * w[:, None])
    coef = inv @ (y * w)
    cov = inv @ inv.T
    resid = y - design @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return LineFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r_squared=r2,
        slope_stderr=math.sqrt(cov[0, 0]),
        intercept_stderr=math.sqrt(cov[1, 1]),
    )


# A line is present when its two amplitude coefficients, whitened by
# their fitted covariance, give a chi-square (2 dof) above the p = 1e-3
# point, -2 ln(1e-3) = 13.8.
PRESENCE_CHI2 = -2.0 * math.log(1e-3)
_MAX_RATE = 100.0  # per record span: no basis column overflows
_MAX_STEPS = 100  # Gauss-Newton steps of one fit
_STEP_TOL = 1e-3  # standard errors: a smaller step in every rate is the last
_MAX_HALVINGS = 8  # of one step, before the fit stops as converged
_RATE_STEP = 1e-6  # relative, of the central difference in a rate


@dataclass(frozen=True)
class DampedLine:
    """One line of a trace, as fit_lines fits it.

    amplitude holds its (cos, sin) coefficients at the first delay, rate
    its amplitude decay rate (1/ps) and cov the covariance of (rate, cos,
    sin). chi2 is the amplitude whitened by its covariance: under the
    null of no line, chi-square with 2 dof, the GLRT statistic of a line
    of known frequency and unknown amplitude and phase (Kay, Fundamentals
    of Statistical Signal Processing II, 1998, ch. 7). The line is
    present when chi2 exceeds PRESENCE_CHI2.
    """

    rate: float
    amplitude: np.ndarray
    cov: np.ndarray

    @property
    def chi2(self) -> float:
        """a^T C^-1 a over the (cos, sin) amplitude a and its covariance C.

        lstsq, not an inverse, which overflows on the tiny covariance
        fit_lines gives an all-zero trace.
        """
        a = self.amplitude
        return float(a @ np.linalg.lstsq(self.cov[1:, 1:], a, rcond=None)[0])

    @property
    def present(self) -> bool:
        return self.chi2 > PRESENCE_CHI2


@dataclass(frozen=True)
class LinesFit:
    """A trace's Omega and 2 Omega lines, and the fit's chi-square and dof."""

    omega: DampedLine
    two_omega: DampedLine
    chi2: float
    dof: int


def fit_lines(trace, omega_thz: float, noise_sd: float = 0.0, shared=None) -> LinesFit:
    """Variable-projection fit of a trace to the model's damped lines.

    Under energy relaxation at rate lambda, the mean and variance traces
    are sums of a background 1, e^{-lambda tau}, e^{-2 lambda tau}, an
    Omega line at rates lambda/2 and 3 lambda/2, and a 2 Omega line at a
    rate kappa that the model puts at lambda. Least squares solves the
    linear coefficients inside; Gauss-Newton steps, halved until the cost
    falls, move the rates outside (Golub & Pereyra, Inverse Problems 19,
    R1, 2003). The covariance is that of the linearization in rates and
    coefficients, times the variance of a point: noise_sd^2, or for a
    noise_sd of 0 the residual chi2/dof, floored at the rounding of a
    computed trace, sqrt(n) ulps of its largest value.

    Given shared, another trace's Omega line, lambda is twice its rate and
    is not fitted (Golub & LeVeque, 1979); shared's rate variance enters
    the covariance through the fit's sensitivity to lambda. Otherwise a
    fit of the leading terms (1, e^{-lambda tau}, the Omega line at
    lambda/2) starts lambda away from the alias lambda/3, whose 3 lambda/2
    term fits that line as well. Then kappa is tied to lambda, and only
    when that fit's 2 Omega line is present does a last fit free kappa,
    so that no rate wanders where no line fixes it.
    """
    taus, y = _as_trace(trace)
    t = taus - taus[0]
    w = 2.0 * math.pi * omega_thz
    max_rate = _MAX_RATE / t[-1]
    waves = np.cos(w * t), np.sin(w * t), np.cos(2.0 * w * t), np.sin(2.0 * w * t)
    floor = taus.size * (np.finfo(float).eps * np.max(np.abs(y))) ** 2
    floor = max(floor, np.finfo(float).tiny)

    def basis(theta, n_coef):
        # The Omega line's (cos, sin) at rate lam/2, the 2 Omega line's at
        # kappa, then 1, g, g^2 and g times the Omega pair,
        # g = (1 - e^{-lam t}) / lam -> t: independent as lam -> 0.
        lam, kappa = theta[0], theta[-1]
        g = t if lam == 0.0 else -np.expm1(-lam * t) / lam
        half, two = np.exp(-0.5 * lam * t), np.exp(-kappa * t)
        cos, sin = half * waves[0], half * waves[1]
        cols = [cos, sin, two * waves[2], two * waves[3], np.ones_like(t), g, g * g]
        return np.column_stack([*cols, g * cos, g * sin][:n_coef])

    def project(theta, n_coef):
        cols = basis(theta, n_coef)
        coef = np.linalg.lstsq(cols, y, rcond=None)[0]
        resid = y - cols @ coef
        return cols, coef, resid, float(resid @ resid)

    def solve(theta, n_coef=9):
        # Rates theta[fixed:] are fitted; theta[0] is lambda, fixed or not.
        p, fit = theta.size, project(theta, n_coef)
        dof = taus.size - p + fixed - n_coef
        for _ in range(_MAX_STEPS):
            var = max(noise_sd**2 if noise_sd > 0 else fit[3] / dof, floor)
            h = _RATE_STEP * np.maximum(1.0, np.abs(theta))
            jac = [
                (basis(theta + dk, n_coef) - basis(theta - dk, n_coef)) @ fit[1] / (2.0 * hk)
                for dk, hk in zip(np.diag(h), h)
            ]
            inv = np.linalg.pinv(np.column_stack([*jac[fixed:], fit[0]]))
            cov = var * inv @ inv.T
            step = (inv @ fit[2])[: p - fixed]
            if np.all(np.abs(step) <= _STEP_TOL * np.sqrt(np.diag(cov)[: p - fixed])):
                break
            step = np.pad(step, (fixed, 0))
            for halving in range(_MAX_HALVINGS):
                trial_theta = np.clip(theta + step / 2**halving, -max_rate, max_rate)
                trial = project(trial_theta, n_coef)
                if trial[3] < fit[3]:
                    theta, fit = trial_theta, trial
                    break
            else:
                break
        if fixed:  # lambda's variance, through the fit's d/d lambda, -inv @ jac[0]
            sensitivity = np.concatenate([[1.0], -inv @ jac[0]])
            cov = np.pad(cov, (1, 0)) + lam_var * np.outer(sensitivity, sensitivity)
        lines = []
        for at, first, unit in ((0, p, 0.5), (p - 1, p + 2, 1.0)):
            idx = [at, first, first + 1]
            scale = np.outer([unit, 1, 1], [unit, 1, 1])
            amp = fit[1][first - p : first - p + 2]
            lines.append(DampedLine(theta[at] * unit, amp, cov[np.ix_(idx, idx)] * scale))
        return theta, lines, fit[3] / var, dof

    fixed = int(shared is not None)
    if fixed:
        lam, lam_var = 2.0 * shared.rate, 4.0 * shared.cov[0, 0]
    else:
        lam = solve(np.array([1.0 / t[-1]]), n_coef=6)[0][0]
    theta, lines, chi2, dof = solve(np.array([lam]))
    if lines[1].present:
        _, lines, chi2, dof = solve(np.array([theta[0], theta[0]]))
    return LinesFit(*lines, chi2=chi2, dof=dof)


def scan_noise(dt_var, n_pulses: int, m_scans: int) -> tuple[float, float, float]:
    """Estimated noise of a scan: (mean sd, variance sd, amplitude sigma).

    Over N Gaussian pulses of variance sigma^2 (the median of dt_var), a
    burst mean has sd sigma / sqrt(N), a ddof-1 variance
    _burst_variance_sd(sigma^2, N), both over sqrt(m) for m scans; white
    noise of that variance sd gives 2 sd / sqrt(n_delays) per
    detrend_and_fft bin.
    """
    var = float(np.median(dt_var))
    var_sd = _burst_variance_sd(var, n_pulses) / math.sqrt(m_scans)
    mean_sd = math.sqrt(var / (n_pulses * m_scans))
    return mean_sd, var_sd, 2.0 * var_sd / math.sqrt(dt_var.size)


@dataclass(frozen=True)
class ComponentLifetime:
    """Envelope decay of one line of a trace, as fit_lines fits it.

    chi2 is the line's presence statistic (DampedLine.chi2), finite
    whether or not the line is present, and present is chi2 >
    PRESENCE_CHI2. rate is the amplitude decay rate (1/ps) and
    rate_stderr its standard error; lifetime is the rate's inverse, or
    inf when the rate is within 3 standard errors of zero. These three
    are nan when the line is absent.
    """

    present: bool
    chi2: float
    rate: float
    rate_stderr: float
    lifetime: float


@dataclass(frozen=True)
class LifetimeResult:
    fundamental: ComponentLifetime
    second_harmonic: ComponentLifetime


def _lifetime(line: DampedLine) -> ComponentLifetime:
    if not line.present:
        return ComponentLifetime(False, line.chi2, math.nan, math.nan, math.nan)
    stderr = math.sqrt(line.cov[0, 0])
    lifetime = math.inf if abs(line.rate) <= 3.0 * stderr else 1.0 / line.rate
    return ComponentLifetime(True, line.chi2, line.rate, stderr, lifetime)


def extract_lifetimes(
    trace, omega_thz: float, noise_sd: float = 0.0, shared=None
) -> LifetimeResult:
    """Lifetimes of a trace's Omega and 2 Omega lines, by fit_lines."""
    fit = fit_lines(trace, omega_thz, noise_sd, shared)
    return LifetimeResult(_lifetime(fit.omega), _lifetime(fit.two_omega))


@dataclass(frozen=True)
class ScanLifetimes:
    """Both traces' lifetimes, and the variance's 2 Omega rate over the mean's
    Omega rate (model: 2) with its stderr, None unless both lines are present."""

    mean: LifetimeResult
    variance: LifetimeResult
    rate_ratio: float | None
    rate_ratio_stderr: float | None


def scan_lifetimes(rows, omega_thz: float, mean_sd=0.0, var_sd=0.0) -> ScanLifetimes:
    """Lifetimes of (delay, mean, variance) rows with point sds mean_sd and
    var_sd (0: from the residuals). The mean trace fixes the decay rate;
    the variance trace is fitted at it, and its Omega line reports it."""
    rows = np.asarray(rows, dtype=float)
    mean = fit_lines(rows[:, [0, 1]], omega_thz, mean_sd)
    variance = extract_lifetimes(rows[:, [0, 2]], omega_thz, var_sd, shared=mean.omega)
    omega, two_omega = _lifetime(mean.omega), variance.second_harmonic
    ratio = stderr = None
    if omega.present and two_omega.present:
        ratio = two_omega.rate / omega.rate
        stderr = math.hypot(two_omega.rate_stderr, ratio * omega.rate_stderr) / abs(omega.rate)
    mean_life = LifetimeResult(omega, _lifetime(mean.two_omega))
    return ScanLifetimes(mean_life, variance, ratio, stderr)


@dataclass(frozen=True)
class FluenceFitResult:
    """Outcome of the squeezing-coupling fit over a fluence series.

    r_per_fluence rows are (fluence, r); quad_uncertainties rows are
    (fluence, squeezed-quadrature variance, antisqueezed-quadrature
    variance) evaluated at the fitted r. fit_residual is the final cost
    0.5 * sum(weighted residuals^2).
    """

    mu_s_hat: float
    r_per_fluence: np.ndarray
    quad_uncertainties: np.ndarray
    fit_residual: float

    def __post_init__(self) -> None:
        r = self.r_per_fluence[:, 1]
        if np.any(np.diff(r) < -1e-12):
            raise ValueError("r must be non-decreasing in fluence")
        prod = self.quad_uncertainties[:, 1] * self.quad_uncertainties[:, 2]
        if np.any(prod < _PRODUCT_BOUND):
            raise ValueError("quadrature uncertainty product below the quantum bound")


def fit_fluence_series(
    points,
    probe: ProbeSpec,
    conversion: float,
    amplitude_scale: float,
    thermal_n: float,
) -> FluenceFitResult:
    """Weighted fit of the squeezing coupling to measured amplitudes.

    points rows are (fluence, a2omega, sigma), all finite. The model is
    amplitude_scale * prefactor * sinh(2 r(F)), the prefactor taken at
    zero delay, with r(F) = 2 mu_s conversion F, where
    conversion maps fluence to the pump intensity |nu|^2. thermal_n is
    the occupation of the pre-pump state.

    The single parameter mu_s >= 0 minimizes 0.5 sum r_i^2 over the
    weighted residuals r_i = (model_i - a2omega_i) / sigma_i, found as a
    root of the normal equation g(mu) = sum r_i dr_i/dmu, whose
    derivative is in closed form. mu_s is exactly 0 when g(0) >= 0, the
    bound being active. Otherwise an upper bracket is grown by doubling
    from the asinh guess of the top-fluence point, and Newton steps,
    bisecting whenever a step would leave the bracket, run until a step
    or the bracket is a few ulps wide. Raises FitError when the model
    overflows before g turns positive, or when the steps do not
    converge.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be rows of (fluence, a2omega, sigma)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("fluence points must be finite")
    if pts.shape[0] < 3:
        raise FitError("need at least 3 fluence points")
    pts = pts[np.argsort(pts[:, 0])]
    fluence, amp, sigma = pts.T
    if np.any(fluence < 0):
        raise ValueError("fluences must be >= 0")
    if np.any(sigma <= 0):
        raise ValueError("sigmas must be positive")
    if conversion <= 0:
        raise ValueError("conversion must be positive")

    pref = amplitude_scale * amplitude_prefactor(probe, thermal_n)
    slope = 2.0 * conversion  # r = slope * mu_s * F

    def finish(mu: float, residual: float) -> FluenceFitResult:
        r = slope * mu * fluence
        n = thermal_n
        quad = np.column_stack(
            [
                fluence,
                [squeezed_thermal_quadrature_variance(n, ri, 0.0) for ri in r],
                [squeezed_thermal_quadrature_variance(n, ri, math.pi) for ri in r],
            ]
        )
        return FluenceFitResult(
            mu_s_hat=mu,
            r_per_fluence=np.column_stack([fluence, r]),
            quad_uncertainties=quad,
            fit_residual=residual,
        )

    if np.all(amp == 0.0):
        return finish(0.0, 0.0)
    if pref <= 0:
        raise FitError("model prefactor is zero; amplitudes cannot be fitted")

    k = 2.0 * slope * fluence  # sinh argument per unit mu_s

    def normal_equation(mu: float) -> tuple[float, float]:
        # g = sum r dr/dmu and g' = sum (dr/dmu)^2 + r d2r/dmu2 for the
        # weighted residuals r = (pref sinh(k mu) - amp) / sigma.
        s = np.sinh(k * mu)
        r = (pref * s - amp) / sigma
        dr = pref * k * np.cosh(k * mu) / sigma
        g = float(r @ dr)
        dg = float(dr @ dr + r @ (pref * k * k * s / sigma))
        if not (math.isfinite(g) and math.isfinite(dg)):
            raise FitError(
                f"fluence fit: the model overflows at mu_s {mu:.3e}, "
                "before the normal equation brackets the coupling"
            )
        return g, dg

    def cost(mu: float) -> float:
        r = (pref * np.sinh(k * mu) - amp) / sigma
        return 0.5 * float(r @ r)

    # Overflow (sinh, cosh or their products) shows as a non-finite g in
    # normal_equation, which raises FitError; it must not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        g0, _ = normal_equation(0.0)
        if g0 >= 0.0:
            # The cost rises from mu_s = 0: the bound is the optimum.
            return finish(0.0, cost(0.0))
        top = np.argmax(fluence)
        guess = math.asinh(max(amp[top], 0.0) / pref) / max(k[top], 1e-300)
        mu = max(guess, 1e-12)
        g, dg = normal_equation(mu)
        lo, hi, g_hi = 0.0, mu, g
        while g_hi <= 0.0:
            lo, hi = hi, 2.0 * hi
            g_hi, _ = normal_equation(hi)
        # Newton from the guess, bisecting whenever a step would leave the
        # bracket [lo, hi], whose ends keep g(lo) < 0 < g(hi).
        for _ in range(_FIT_MAX_STEPS):
            if g > 0.0:
                hi = mu
            elif g < 0.0:
                lo = mu
            else:
                return finish(mu, cost(mu))
            newton = mu - g / dg if dg > 0.0 else math.nan
            if abs(newton - mu) <= _FIT_ULPS * math.ulp(mu):
                return finish(newton, cost(newton))
            if hi - lo <= _FIT_ULPS * math.ulp(hi):
                return finish(mu, cost(mu))
            mu = newton if lo < newton < hi else 0.5 * (lo + hi)
            g, dg = normal_equation(mu)
    raise FitError(
        f"fluence fit did not converge in {_FIT_MAX_STEPS} steps: "
        f"mu_s {mu:.17g} in the bracket [{lo:.17g}, {hi:.17g}]"
    )
