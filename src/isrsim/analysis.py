"""Spectral and statistical analysis of delay traces.

Covers the read-out side of the experiment: peak amplitudes at the
phonon frequency and its second harmonic from detrended FFTs, Morlet
time-frequency maps for lifetime separation, least-squares line fits,
and the closed-loop fit of the squeezing coupling against a fluence
series of second-harmonic amplitudes.
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
# Half-width of the window a spectral peak is looked for in, and the
# width of the background annulus around it.
_PEAK_BINS = 3
_ANNULUS_BINS = 8
# The second harmonic counts as present in extract_lifetimes only above
# this fraction of the fundamental's peak power.
_PRESENCE_RATIO = 1e-3

# Quantum lower bound on the product of the two quadrature variances.
_PRODUCT_BOUND = 0.25 - 1e-9


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


def _peak_window(freqs, size: int, nominal: float) -> tuple[float, int, int, int]:
    """Bin width, nominal bin and search window [lo, hi) of a spectrum of size bins.

    The window spans _PEAK_BINS bins on each side of the nominal bin,
    clipped to skip the DC bin and the last bin.
    """
    df = freqs[1] - freqs[0]
    center = int(round(nominal / df))
    lo = max(1, center - _PEAK_BINS)
    hi = min(size - 1, center + _PEAK_BINS + 1)
    if lo >= hi:
        raise ValueError("nominal frequency outside the spectrum")
    return df, center, lo, hi


def interpolate_peak(
    freqs: np.ndarray, amps: np.ndarray, nominal: float
) -> tuple[float, float]:
    """Refined (frequency, amplitude) near a nominal frequency.

    Takes the maximum bin within the search halfwidth and sharpens it
    with a log-domain parabola through the three surrounding bins, which
    removes most of the scalloping of off-bin tones.
    """
    df, _, lo, hi = _peak_window(freqs, len(amps), nominal)
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


def peak_contrast(freqs: np.ndarray, power: np.ndarray, nominal: float) -> float:
    """Peak height over the local spectral background near a frequency.

    The background is the median over an annulus of bins around the
    nominal position, skipping the peak itself. A genuine narrow line
    stands far above it; the smooth wing of a damped line elsewhere in
    the spectrum does not, which is what distinguishes the two.
    """
    freqs = np.asarray(freqs, dtype=float)
    power = np.asarray(power, dtype=float)
    _, center, lo, hi = _peak_window(freqs, power.size, nominal)
    peak = float(np.max(power[lo:hi]))
    ring = np.concatenate(
        [
            power[max(1, center - _PEAK_BINS - _ANNULUS_BINS) : lo],
            power[hi : min(power.size, center + _PEAK_BINS + _ANNULUS_BINS + 1)],
        ]
    )
    if ring.size == 0:
        return math.inf
    background = float(np.median(ring))
    if background <= 0:
        return math.inf if peak > 0 else 0.0
    return peak / background


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


def _sigma_t(freq):
    """Time width of the Morlet wavelet of the row at freq."""
    return DEFAULT_WAVELET_WIDTH / (2.0 * math.pi * freq)


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
    sigma_t = _sigma_t(target)
    # Analytic filter: positive frequencies only, amplitude 2 so that a
    # real cosine (half its weight at +f) returns unit response.
    filt = 2.0 * np.exp(
        -2.0 * math.pi ** 2 * sigma_t[:, None] ** 2 * (grid[None, :] - target[:, None]) ** 2
    )
    filt[:, grid <= 0] = 0.0
    rows = np.fft.ifft(spec[None, :] * filt, axis=1)
    return np.abs(rows) ** 2


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    intercept_stderr: float
    dof: int

    @property
    def intercept_ci95(self) -> float:
        """Half-width of the 95% confidence interval on the intercept."""
        # scipy.stats is imported here, on first use: it is costly to load,
        # and only the shot-noise read-out asks for the interval.
        from scipy import stats

        return float(stats.t.ppf(0.975, self.dof) * self.intercept_stderr)


def fit_line(x, y) -> LineFit:
    """Ordinary least-squares line with the standard errors of both
    coefficients."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 points")
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = x.size - 2
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(design.T @ design)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return LineFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r_squared=r2,
        slope_stderr=math.sqrt(cov[0, 0]),
        intercept_stderr=math.sqrt(cov[1, 1]),
        dof=dof,
    )


@dataclass(frozen=True)
class ComponentLifetime:
    """Envelope decay of one spectral component.

    rate is the amplitude decay rate (1/ps); lifetime its inverse, or
    inf when the fitted rate is consistent with zero at 3 sigma. present
    is False when the component never rises above the noise floor, in
    which case the other fields are nan.
    """

    present: bool
    rate: float
    rate_stderr: float
    lifetime: float


@dataclass(frozen=True)
class LifetimeResult:
    fundamental: ComponentLifetime
    second_harmonic: ComponentLifetime

    def ratio(self) -> float:
        """rate(2 Omega) / rate(Omega)."""
        return self.second_harmonic.rate / self.fundamental.rate


_ABSENT = ComponentLifetime(False, math.nan, math.nan, math.nan)

# Margin added to ln(n) when testing a row peak against the expected
# maximum of white noise over n samples (the peak of a noise-only row
# concentrates near mean * ln(n), not near the mean).
_DETECTION_LOG_MARGIN = 5.0


def morlet_noise_power(noise_sd: float, dt: float, freq: float) -> float:
    """Expected spectrogram power of white per-sample noise in one row.

    White noise of standard deviation noise_sd passes the row's Gaussian
    band with integrated response 2 dt / (sqrt(pi) sigma_t), which is
    the mean |w|^2 it contributes along the row.
    """
    return noise_sd ** 2 * 2.0 * dt / (math.sqrt(math.pi) * _sigma_t(freq))


def _fit_row_decay(taus: np.ndarray, row: np.ndarray, floor: float) -> ComponentLifetime:
    # Fit log power linearly where the row stands above floor.
    keep = row > floor
    if np.count_nonzero(keep) < 8:
        return _ABSENT
    fit = fit_line(taus[keep], np.log(row[keep]))
    rate = 0.5 * -fit.slope  # amplitude envelope decays at half the power rate
    rate_stderr = 0.5 * fit.slope_stderr
    if abs(rate) <= 3.0 * rate_stderr:
        return ComponentLifetime(True, rate, rate_stderr, math.inf)
    return ComponentLifetime(True, rate, rate_stderr, 1.0 / rate)


def extract_lifetimes(trace, omega_thz: float, noise_sd: float = 0.0) -> LifetimeResult:
    """Envelope lifetimes of the two oscillating components of a trace.

    The trace's fundamental and second-harmonic rows of the Morlet map
    are fitted with exponential envelopes. Each row is read only outside
    its cone of influence, 3 sigma_t from either end of the record, where
    edge artifacts of the finite record would otherwise dominate. A
    component is reported as absent rather than fitted when its peak
    power there stays below the expected peak of the white-noise row
    power implied by noise_sd; the second harmonic is also absent below
    _PRESENCE_RATIO times the fundamental's peak (a ratio above the
    spectral wing a damped fundamental leaves at its second harmonic),
    and whenever the fundamental is. A fitted rate within 3 sigma of
    zero is reported as non-decaying (infinite lifetime). The trace is
    detrended before the transform so the relaxation background neither
    fills the low-frequency rows nor rings across the record as a
    wrap-around discontinuity.
    """
    taus, _ = _as_trace(trace)
    freqs = [omega_thz, 2.0 * omega_thz]
    rows = morlet_power(detrended_trace(trace), freqs)
    dt = taus[1] - taus[0]
    log_n = math.log(taus.size)
    components = []
    min_peak = 0.0
    for freq, row in zip(freqs, rows):
        margin = 3.0 * _sigma_t(freq)
        interior = (taus >= taus[0] + margin) & (taus <= taus[-1] - margin)
        peak = float(np.max(row[interior] if np.any(interior) else row))
        noise = morlet_noise_power(noise_sd, dt, freq)
        if peak <= 0 or peak < min_peak or peak < noise * (log_n + _DETECTION_LOG_MARGIN):
            break
        components.append(
            _fit_row_decay(
                taus[interior], row[interior], max(peak * 1e-3, 3.0 * noise)
            )
        )
        min_peak = _PRESENCE_RATIO * peak
    components += [_ABSENT] * (2 - len(components))
    return LifetimeResult(*components)


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
    k_modes: int,
    conversion: float,
    amplitude_scale: float,
    thermal_n: float,
) -> FluenceFitResult:
    """Weighted fit of the squeezing coupling to measured amplitudes.

    points rows are (fluence, a2omega, sigma). The model is
    amplitude_scale * prefactor * sinh(2 r(F)), the prefactor taken at
    zero delay, with r(F) = 2 k_modes mu_s conversion F, where
    conversion maps fluence to the squared pump-mode amplitude. The
    single parameter mu_s is bounded below by zero; the gradient is
    supplied in closed form. thermal_n is the occupation of the pre-pump
    state.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be rows of (fluence, a2omega, sigma)")
    if pts.shape[0] < 3:
        raise FitError("need at least 3 fluence points")
    pts = pts[np.argsort(pts[:, 0])]
    fluence, amp, sigma = pts.T
    if np.any(fluence < 0):
        raise ValueError("fluences must be >= 0")
    if np.any(sigma <= 0):
        raise ValueError("sigmas must be positive")
    if k_modes < 1 or conversion <= 0:
        raise ValueError("k_modes must be >= 1 and conversion positive")

    pref = amplitude_scale * amplitude_prefactor(probe, thermal_n)
    slope = 2.0 * k_modes * conversion  # r = slope * mu_s * F

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

    def residuals(x):
        return (pref * np.sinh(2.0 * slope * x[0] * fluence) - amp) / sigma

    def jacobian(x):
        d = (
            pref
            * np.cosh(2.0 * slope * x[0] * fluence)
            * 2.0
            * slope
            * fluence
            / sigma
        )
        return d.reshape(-1, 1)

    top = np.argmax(fluence)
    guess = math.asinh(max(amp[top], 0.0) / pref) / max(
        2.0 * slope * fluence[top], 1e-300
    )
    guess = max(guess, 1e-12)
    # scipy.optimize is imported here, on first use: it is the costliest
    # scipy module to load, and only the fluence fit needs it.
    from scipy.optimize import least_squares

    result = least_squares(
        residuals,
        x0=[guess],
        jac=jacobian,
        bounds=([0.0], [np.inf]),
        method="trf",
        max_nfev=200,
        xtol=1e-14,
        ftol=1e-12,
        gtol=1e-14,
    )
    if result.status <= 0:
        raise FitError(
            f"fluence fit did not converge: status {result.status}, "
            f"cost {result.cost:.3e}, mu_s {result.x[0]:.3e}"
        )
    return finish(float(result.x[0]), float(result.cost))
