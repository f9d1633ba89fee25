"""The same panel gives the same bits whether it is held in memory or read back
from its panel CSV.  The reader parses bar-major rows; the panel copies them
into C order, so every row reduction sums in the order the in-memory panel
does.  At 40 x 3000 a strided (F-ordered) reduction would give other last
bits than a contiguous one."""

import os

import numpy as np
import pytest

from xcorr.cli import export_panel, ingest, main
from xcorr.modes import eigensignals, remove_modes_iterative
from xcorr.panel import coarsen, standardize
from xcorr.spectrum import correlation_matrix, eigendecompose, windowed_element_distribution
from xcorr.surrogate import KINDS, SurrogateSpec, apply_surrogate
from xcorr.synth import MarketModel, generate


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _spectrum(r):
    return eigendecompose(correlation_matrix(r))


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """(in memory, read back) for one synthetic 40 x 3000 panel."""
    mem = generate(MarketModel(n_assets=40, t_length=3000, bars_per_day=10,
                               market_loading=0.5, seed=3))
    path = tmp_path_factory.mktemp("same") / "panel.csv"
    export_panel(mem, path)
    back = ingest(str(path), "panel")
    assert _same_bits(back.returns, mem.returns) and back.assets == mem.assets
    return mem, back


def test_removal_residuals_and_coefficients(pair):
    mem, back = (remove_modes_iterative(p, 3) for p in pair)
    assert _same_bits(back.panel.returns, mem.panel.returns)
    for k in range(3):
        assert _same_bits(back.betas[k], mem.betas[k])
        assert _same_bits(back.alphas[k], mem.alphas[k])
        assert _same_bits(back.spectra[k].eigenvalues, mem.spectra[k].eigenvalues)


def test_eigensignals(pair):
    mem, back = (eigensignals(p, _spectrum(p), range(1, 41)) for p in pair)
    for zm, zb in zip(mem, back):
        assert _same_bits(zb.series, zm.series)


@pytest.mark.parametrize("kind", KINDS)
def test_surrogate_then_standardize_and_spectrum(pair, kind):
    out = []
    for p in pair:
        sur = apply_surrogate(p, SurrogateSpec(kind, 5))
        out.append(sur if sur.standardized else standardize(sur))
    mem, back = out
    assert _same_bits(back.returns, mem.returns)
    sm, sb = _spectrum(mem), _spectrum(back)
    assert _same_bits(sb.eigenvalues, sm.eigenvalues)
    assert _same_bits(sb.eigenvectors, sm.eigenvectors)


def test_windowed_element_distribution(pair):
    mem, back = (windowed_element_distribution(p, 10.0) for p in pair)
    assert _same_bits(back.bin_edges, mem.bin_edges)
    assert _same_bits(back.densities, mem.densities)
    assert back.to_dict() == mem.to_dict()


@pytest.mark.parametrize("factor", [2, 5])
def test_coarsen_then_spectrum(pair, factor):
    mem, back = (standardize(coarsen(p, factor)) for p in pair)
    assert _same_bits(back.returns, mem.returns)
    assert _same_bits(_spectrum(back).eigenvalues, _spectrum(mem).eigenvalues)


def _artifact_lines(out, name):
    with open(os.path.join(out, name)) as fh:
        return [line for line in fh if "config_hash" not in line]


def test_remove_from_preset_equals_remove_from_its_synth_panel(tmp_path):
    preset = ["--preset", "one_factor", "--seed", "3"]
    assert main(["synth", *preset, "--out", str(tmp_path / "synth")]) == 0
    csv = str(tmp_path / "synth" / "panel.csv")
    assert main(["remove", "--remove-count", "3", *preset, "--out", str(tmp_path / "a")]) == 0
    assert main(["remove", "--remove-count", "3", "--input", csv,
                 "--out", str(tmp_path / "b")]) == 0
    for name in ("remove.json", "fig2c-analogue.txt", "residual_panel.csv"):
        assert _artifact_lines(tmp_path / "b", name) == _artifact_lines(tmp_path / "a", name), name
