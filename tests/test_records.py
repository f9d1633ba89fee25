"""A result record's JSON is its fields: ``to_dict`` gives one key per
dataclass field, an array as nested lists, and survives a JSON round trip.
A field the record derives from the others (``init=False``) is set when the
record is built, and built again by ``dataclasses.replace``."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from xcorr import mfdfa, modes, panel, spectrum, surrogate, synth
from xcorr.mfdfa import analyze
from xcorr.modes import remove_modes_iterative
from xcorr.spectrum import correlation_matrix, eigendecompose, element_distribution, mp_bounds
from xcorr.surrogate import SurrogateSpec
from xcorr.synth import MarketModel, generate, preset

# Keys a record's JSON names differently from its field.
RENAMED = {"EigenSpectrum": {"eigenvectors": "eigenvectors_row_major"}}
# ResidualPanel's JSON groups the per-pass lists and leaves out `spectra`.
OWN_LAYOUT = {"ResidualPanel": {"removed_modes", "passes", "dropped_assets", "assets"}}

NAMES = ["EigenSpectrum", "MpBounds", "ElementDistribution", "FluctuationSurface",
         "SingularitySpectrum", "MarketModel", "SurrogateSpec", "ResidualPanel"]


@pytest.fixture(scope="module")
def records():
    r = generate(MarketModel(n_assets=6, t_length=1200, bars_per_day=10,
                             market_loading=0.5, seed=3))
    c = correlation_matrix(r)
    surface, singularity = analyze(r.returns[0])
    objs = [
        eigendecompose(c),
        mp_bounds(c.q),
        element_distribution(c, 10),
        surface,
        singularity,
        # Every kind of field: an array, a list of tuples and a tuple.
        preset("intraday", seed=3, sector_spec=[(20, 0.5)], vol_clustering=(0.9, 0.3)),
        SurrogateSpec("shuffle_signs", 7),
        remove_modes_iterative(r, 2),
    ]
    return {type(obj).__name__: obj for obj in objs}


def test_every_record_with_to_dict_is_covered(records):
    found = {
        name
        for mod in (panel, spectrum, modes, surrogate, mfdfa, synth)
        for name, cls in inspect.getmembers(mod, inspect.isclass)
        if cls.__module__ == mod.__name__ and hasattr(cls, "to_dict")
    }
    assert found == set(NAMES) == set(records)


@pytest.mark.parametrize("name", NAMES)
def test_keys_are_the_fields(records, name):
    obj = records[name]
    d = obj.to_dict()
    if name in OWN_LAYOUT:
        assert set(d) == OWN_LAYOUT[name]
        return
    renamed = RENAMED.get(name, {})
    fields = dataclasses.fields(obj)
    assert sorted(d) == sorted(renamed.get(f.name, f.name) for f in fields)
    for f in fields:
        value = getattr(obj, f.name)
        want = value.tolist() if isinstance(value, np.ndarray) else value
        assert json.dumps(d[renamed.get(f.name, f.name)]) == json.dumps(want), f.name


@pytest.mark.parametrize("name", NAMES)
def test_json_round_trip_is_unchanged(records, name):
    d = records[name].to_dict()
    assert json.loads(json.dumps(d)) == d


@pytest.mark.parametrize("name", NAMES)
def test_derived_fields_are_set_at_construction(records, name):
    obj = records[name]
    for f in dataclasses.fields(obj):
        if not f.init:
            assert getattr(obj, f.name) is not None, f.name


def test_replaced_mp_bounds_derive_their_edges(records):
    b = dataclasses.replace(records["MpBounds"], q=4.0)
    assert (b.lambda_min, b.lambda_max) == (0.25, 2.25)
    assert b == mp_bounds(4.0)


def test_replaced_surface_refits_h(records):
    surface = records["FluctuationSurface"]
    doubled = dataclasses.replace(surface, values=2 * surface.values)
    # ln(2 F) = ln F + ln 2 moves only the intercept of each fit.
    assert np.allclose(doubled.h, surface.h, rtol=0, atol=1e-12)
    assert doubled.h is not surface.h
    squared = dataclasses.replace(surface, values=surface.values ** 2)
    assert np.allclose(squared.h, 2 * surface.h, rtol=0, atol=1e-12)
    assert np.allclose(squared.fit_residual, 2 * surface.fit_residual, rtol=0, atol=1e-12)
