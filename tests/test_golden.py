"""Output bytes pinned to recorded digests.

Refactors of this package promise the same output bytes for the same
config and seed. This test runs predict, shot-noise and scan in-process
at the default config, plus a short scan and one fluence trial of the
tier-1 loop, and compares the first 16 hex digits of each data file's
sha256 with the digests recorded when the current random-stream layout
was fixed (the last two cases were recorded later, on code that gave
the first three the same digests). The three scan-per-pulse (now
scan-short) histogram
digests were re-recorded when the histograms' reference arm moved to
the scan's unpumped baseline; no other digest changed with them. The
two fluence digests were re-recorded when the couplings became per
|nu|^2 with no mode count: mu_s_hat and mu_s_injected are reported in
that unit (100 times the old numbers), fluence_fit.json lost its k_modes
field, and the fit's r and quadrature columns, and one amplitude, moved
in their last digits because the products round in another order. The
scan-per-pulse and shot-noise digests were re-recorded when each pulse
became one Normal draw from voltage_statistics, from one stream per row,
in place of separate signal-arm, reference-arm and electronic draws from
two, and each shot-noise power's variance became one var chi2(N-1)/(N-1)
draw: same distribution, other bits. The per-pulse lifetimes.json kept
its digest (at this short scan it reports no component present); no
other digest changed. The two fluence digests were re-recorded again when
the coupling fit became a bracketed Newton solve of its normal equation
in place of scipy's least_squares: mu_s_hat moved by 1.7e-12 (relative)
to the optimum least_squares stopped short of, and the fitted r,
quadrature and residual fields with it. shot_noise_fit.json was
re-recorded at the same time: its t quantile is now computed in the
package, and intercept_ci95 moved in its last digit. shot_noise.csv and
every other digest kept theirs. The lifetimes.json digests of the scan
and scan-per-pulse cases were re-recorded when extract_lifetimes became
one variable-projection fit of the model's damped lines (fit_lines) in
place of log-power line fits to Morlet rows: every rate, stderr and
presence flag in those files moved; no other digest changed. Six
digests were re-recorded when predict and scan took their 2 Omega
presence from fit_lines' chi-square test in place of a peak-contrast
rule and a 4-sigma FFT gate: predict_squeezed_spectrum.json and
predict_reference_spectrum.json (two_omega_chi2 and presence_chi2 in
place of two_omega_contrast, presence_ratio and min_contrast), and
scan_spectrum.json and lifetimes.json in both the scan and the
scan-per-pulse cases (two_omega_chi2 and presence_chi2 in place of
detection_sigmas; a chi2 field per line; one top-level rate_ratio, the
variance's 2 Omega rate over the mean's Omega rate, with its stderr, in
place of one per block). The statistics-only scan's two_omega_present
turned true with that, as its lifetimes.json already said. No other
digest changed. When per-pulse sampling was removed and every scan came
to draw its burst statistics directly, the scan case moved from an
explicit statistics-only config to the defaults with all six data
digests unchanged, and its file list gained the three voltage histograms
that every scan with CSV output now writes (digests recorded then; they
equal the old default per-pulse scan's). The short per-pulse scan became
the statistics-sampled scan-short: its three histogram digests held, and
lifetimes.json, scan_per_scan.csv, scan_spectrum.csv,
scan_spectrum.json, scan_trace.csv and wavelet_map.csv were re-recorded,
since its cells are now drawn as statistics. The fluence case dropped
its statistics_only key with both digests unchanged. shot_noise_fit.json
was re-recorded when fit_line became a fit weighted by each power's
known burst-variance sd, with a Normal interval on the intercept in
place of the least-squares line and its Student-t interval: its slope,
intercept, intercept_ci95 and r_squared moved. shot_noise.csv and every
other digest kept theirs. Six digests were re-recorded when the variance
trace came to be fitted at the decay rate the mean trace fixes
(scan_lifetimes), in place of a rate of its own:
predict_squeezed_spectrum.json and predict_reference_spectrum.json
(two_omega_chi2, a draw of the trace's rounding noise in the
reference, read 0.898 in place of 0.281; the squeezed one moved in its
fifth digit), and scan_spectrum.json and
lifetimes.json in both the scan and the scan-short cases (the variance's
chi2, rates and stderrs; its Omega line now reports the mean's rate;
rate_ratio; and an infinite lifetime is written "inf", not null). No
fluence, shot-noise or CSV digest changed. The two wavelet_map.csv
digests, of the scan and scan-short cases, were dropped when scan
stopped writing the Morlet map, a picture no estimator read; every other
digest kept its value. Manifests are left out: they embed package
versions.

The digests were taken with numpy 2.4.6 on Python 3.11.7. Another numpy
may change the last bits of a float, and with them a digest, without any
change to this package.
"""

import hashlib

import pytest

import isrsim.cli as cli

# Case name -> (command, config overriding the defaults, or None).
CASES = {
    "predict": ("predict", None),
    "shot-noise": ("shot-noise", None),
    "scan": ("scan", None),
    "scan-short": ("scan", "scan:\n  stop_ps: 1.0\n  n_pulses: 200\n  m_scans: 2\n"),
    # The trial of the fluence acceptance loop.
    "fluence": ("fluence", "scan:\n  stop_ps: 5.10\n"),
}

GOLDEN = {
    "predict": {
        "predict_squeezed_trace.csv": "4ea5994ea830702d",
        "predict_reference_trace.csv": "b1910b454e95171e",
        "predict_squeezed_spectrum.json": "cf96987cc12746e2",
        "predict_reference_spectrum.json": "40583316253b8fed",
    },
    "shot-noise": {
        "shot_noise.csv": "46b80ce9d59994ea",
        "shot_noise_fit.json": "d627a9d5a63688cb",
    },
    "scan": {
        "histogram_delay_0000.csv": "0ea4f162bc2ff45d",
        "histogram_delay_0256.csv": "696a74c5ddd7af3f",
        "histogram_delay_0511.csv": "59952a67c31fba79",
        "scan_trace.csv": "7492df345ef16a28",
        "scan_per_scan.csv": "f86f06e551bdf5cb",
        "scan_spectrum.csv": "458ba954a6f2ce07",
        "scan_spectrum.json": "ee90023f10d549db",
        "lifetimes.json": "0e0eb4a8dcd87367",
    },
    "scan-short": {
        "histogram_delay_0000.csv": "f899d47d26a691c8",
        "histogram_delay_0025.csv": "517a86f467bfb52d",
        "histogram_delay_0050.csv": "4077fbfd95f017c8",
        "lifetimes.json": "b90475f7967e72a3",
        "scan_per_scan.csv": "4ca9ff11622f6c3b",
        "scan_spectrum.csv": "064cfd0d95d5b667",
        "scan_spectrum.json": "cab64be712d49f24",
        "scan_trace.csv": "24836bc9c1a7ae57",
    },
    "fluence": {
        "fluence_fit.json": "24511abb93199e98",
        "fluence_series.csv": "6871ba92f4a69f7d",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_recorded_digests(tmp_path, case):
    command, config = CASES[case]
    argv = [command, "--out", str(tmp_path / "out")]
    if config is not None:
        cfg = tmp_path / "config.yaml"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 0
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == sorted([*GOLDEN[case], "manifest.json"])
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()[:16]
        for name in GOLDEN[case]
    }
    assert digests == GOLDEN[case]
