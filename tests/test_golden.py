"""Output bytes pinned to recorded digests.

Refactors of this package promise the same output bytes for the same
config and seed. This test runs three cheap commands in-process at the
default config and compares the first 16 hex digits of each data file's
sha256 with the digests recorded when the current random-stream layout
was fixed. Manifests are left out: they embed package versions.

The digests were taken with numpy 2.4.6 on Python 3.11.7. Another numpy
may change the last bits of a float, and with them a digest, without any
change to this package.
"""

import hashlib

import pytest

import isrsim.cli as cli

STATISTICS_ONLY = "scan:\n  statistics_only: true\n"

GOLDEN = {
    "predict": {
        "predict_squeezed_trace.csv": "4ea5994ea830702d",
        "predict_reference_trace.csv": "b1910b454e95171e",
        "predict_squeezed_spectrum.json": "7afed878deb4d909",
        "predict_reference_spectrum.json": "249af7de49533b54",
    },
    "shot-noise": {
        "shot_noise.csv": "c36ac51a4fa2224e",
        "shot_noise_fit.json": "71bb7ae96c9a0e4f",
    },
    "scan": {
        "scan_trace.csv": "7492df345ef16a28",
        "scan_per_scan.csv": "f86f06e551bdf5cb",
        "scan_spectrum.csv": "458ba954a6f2ce07",
        "scan_spectrum.json": "8a7501efc8b17436",
        "wavelet_map.csv": "342f6e90f75e6500",
        "lifetimes.json": "1f8af8b5521ac952",
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_match_recorded_digests(tmp_path, command):
    argv = [command, "--out", str(tmp_path / "out")]
    if command == "scan":
        cfg = tmp_path / "statistics_only.yaml"
        cfg.write_text(STATISTICS_ONLY)
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 0
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == sorted([*GOLDEN[command], "manifest.json"])
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()[:16]
        for name in GOLDEN[command]
    }
    assert digests == GOLDEN[command]
