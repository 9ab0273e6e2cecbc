"""Spectral and statistical analysis of delay traces.

Covers the read-out side of the experiment: peak amplitudes at the
phonon frequency and its second harmonic from detrended FFTs, Morlet
time-frequency maps for lifetime separation, least-squares line fits
with a Student-t interval on the intercept, and the closed-loop fit of
the squeezing coupling against a fluence series of second-harmonic
amplitudes. The coupling fit and the t quantile are computed here with
numpy and math only, so no command loads scipy.
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
# The fluence fit's Newton solve stops once a step or its bracket is this
# many ulps of mu_s wide, and fails after _FIT_MAX_STEPS steps.
_FIT_ULPS = 4
_FIT_MAX_STEPS = 100
# Newton steps student_t_975 takes at most; it needs fewer than ten.
_T_MAX_STEPS = 50


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
        return student_t_975(self.dof) * self.intercept_stderr


def student_t_975(dof: int) -> float:
    """0.975 quantile of Student's t distribution with integer dof >= 1.

    With t = sqrt(dof) tan(theta), P(|T| <= t) has the closed form A(theta)
    of Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4 (even dof), and
    dA/dtheta = c cos(theta)^(dof - 1), c = 2 Gamma((dof + 1)/2) /
    (sqrt(pi) Gamma(dof/2)). Newton's method solves A = 0.95 in theta. A is
    concave there, so the steps from the normal quantile, which lies below
    every t quantile, rise to the root without overshooting it.
    """
    odd = dof % 2
    c = 2.0 / math.sqrt(math.pi) * math.exp(
        math.lgamma(0.5 * (dof + 1)) - math.lgamma(0.5 * dof)
    )
    theta = math.atan(1.959963984540054 / math.sqrt(dof))
    for _ in range(_T_MAX_STEPS):
        cos = math.cos(theta)
        total, term = 0.0, cos if odd else 1.0
        for m in range(1 + odd, dof, 2):
            total += term
            term *= m / (m + 1) * cos * cos
        a = math.sin(theta) * total
        if odd:
            a = 2.0 / math.pi * (theta + a)
        step = (0.95 - a) / (c * cos ** (dof - 1))
        # Exact steps are all positive; the first that is not, or that no
        # longer moves theta, is rounding noise in A at the root.
        if step <= 0.0 or theta + step == theta:
            break
        theta += step
    return math.sqrt(dof) * math.tan(theta)


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
