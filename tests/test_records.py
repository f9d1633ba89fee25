"""A result record's JSON is its fields: ``to_dict`` gives one key per
dataclass field, an array as nested lists, and survives a JSON round trip.
A field the record derives from the others (``init=False``) is set when the
record is built, and built again by ``dataclasses.replace``.  Every array a
record holds is read-only; a frozen array handed in is shared, anything else
copied once."""

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


# The intake rule: every array a record holds is read-only, derived ones too;
# a frozen array handed in is shared, and a list or a writable array is copied.

def _arrays(obj):
    """Every array a record holds, by field name; an entry of a per-pass list
    of arrays as ``name[k]``."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            out[f.name] = value
        elif isinstance(value, list) and value and all(isinstance(v, np.ndarray) for v in value):
            out.update({f"{f.name}[{k}]": v for k, v in enumerate(value)})
    return out


def _given(value, how):
    """`value` (an array, or a list of them) handed to a record `how`."""
    if isinstance(value, list):
        return [_given(v, how) for v in value]
    if how == "list":
        return value.tolist()
    copy = np.array(value)
    if how == "frozen":
        copy.setflags(write=False)
    return copy


@pytest.fixture(scope="module")
def intake():
    """{record name: (record class, its constructor arguments)}, each built
    from a library result; the arrays among the arguments are handed in by
    ``_given``."""
    r = generate(MarketModel(n_assets=6, t_length=1200, bars_per_day=10,
                             market_loading=0.5, seed=3))
    c = correlation_matrix(r)
    s = eigendecompose(c)
    dist = element_distribution(c, 10)
    (z,) = modes.eigensignals(r, s, [1])
    res = remove_modes_iterative(r, 1)
    surface, singularity = analyze(r.returns[0])
    profile = synth.burst_profile(10, 2, 3.0)
    return {
        "PricePanel": (panel.PricePanel, dict(
            assets=["A", "B"], timestamps=60.0 * np.arange(5), bars_per_day=5,
            prices=100.0 + np.arange(10.0).reshape(2, 5))),
        "ReturnPanel": (panel.ReturnPanel, dict(
            assets=r.assets, returns=r.returns, standardized=True, bars_per_day=10,
            dt_seconds=60.0)),
        "CorrelationMatrix": (spectrum.CorrelationMatrix, dict(values=c.values, t_length=1200)),
        "EigenSpectrum": (spectrum.EigenSpectrum, dict(
            eigenvalues=s.eigenvalues, eigenvectors=s.eigenvectors, source_q=s.source_q)),
        "ElementDistribution": (spectrum.ElementDistribution, dict(
            bin_edges=dist.bin_edges, densities=dist.densities, gaussian_mu=dist.gaussian_mu,
            gaussian_sigma=dist.gaussian_sigma, tail_deviation=dist.tail_deviation,
            n_entries=dist.n_entries)),
        "Eigensignal": (modes.Eigensignal, dict(
            index=1, series=z.series, eigenvalue=z.eigenvalue)),
        "ResidualPanel": (modes.ResidualPanel, dict(
            panel=res.panel, removed_modes=res.removed_modes, alphas=res.alphas,
            betas=res.betas, pass_assets=res.pass_assets, dropped_assets=[],
            spectra=res.spectra)),
        "MarketModel": (MarketModel, dict(
            n_assets=4, t_length=100, bars_per_day=10, intraday_profile=profile)),
        "MfdfaConfig": (mfdfa.MfdfaConfig, dict(
            q_grid=mfdfa.default_q_grid(), scale_grid=np.array([16, 20, 25, 32, 40]))),
        "FluctuationSurface": (mfdfa.FluctuationSurface, dict(
            q_grid=surface.q_grid, scales=surface.scales, values=surface.values)),
        "SingularitySpectrum": (mfdfa.SingularitySpectrum, dict(
            q=singularity.q, h=singularity.h, alpha=singularity.alpha, f=singularity.f)),
    }


INTAKE = ["PricePanel", "ReturnPanel", "CorrelationMatrix", "EigenSpectrum",
          "ElementDistribution", "Eigensignal", "ResidualPanel", "MarketModel",
          "MfdfaConfig", "FluctuationSurface", "SingularitySpectrum"]


def _build(intake, name, how):
    """The record `name` built with its arrays handed in `how`, and those arrays."""
    cls, kwargs = intake[name]
    given = {k: _given(v, how) for k, v in kwargs.items()
             if isinstance(v, np.ndarray) or k in ("alphas", "betas")}
    return cls(**{**kwargs, **given}), given


def test_every_record_holding_an_array_is_covered(intake):
    found = {
        name
        for mod in (panel, spectrum, modes, surrogate, mfdfa, synth)
        for name, cls in inspect.getmembers(mod, inspect.isclass)
        if cls.__module__ == mod.__name__ and dataclasses.is_dataclass(cls)
        and any("ndarray" in str(f.type) or f.name in ("alphas", "betas")
                for f in dataclasses.fields(cls))
    }
    assert found == set(INTAKE) == set(intake)


@pytest.mark.parametrize("name", INTAKE)
def test_no_record_converts_its_own_arrays(intake, name):
    # One helper, panel._as_array, is the only way a record takes an array.
    source = inspect.getsource(intake[name][0].__post_init__)
    for call in ("np.array(", "np.asarray(", "setflags("):
        assert call not in source


@pytest.mark.parametrize("how", ["frozen", "writable", "list"])
@pytest.mark.parametrize("name", INTAKE)
def test_every_array_is_read_only(intake, name, how):
    record, _ = _build(intake, name, how)
    held = _arrays(record)
    assert held
    for field_name, arr in held.items():
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]
        assert not arr.flags.writeable, field_name


@pytest.mark.parametrize("name", INTAKE)
def test_a_frozen_array_is_shared(intake, name):
    record, given = _build(intake, name, "frozen")
    held = _arrays(record)
    for field_name, value in given.items():
        for k, arr in enumerate(value) if isinstance(value, list) else [(None, value)]:
            kept = held[field_name if k is None else f"{field_name}[{k}]"]
            assert np.shares_memory(kept, arr), field_name


@pytest.mark.parametrize("how", ["writable", "list"])
@pytest.mark.parametrize("name", INTAKE)
def test_anything_else_is_copied(intake, name, how):
    record, given = _build(intake, name, how)
    held = _arrays(record)
    for field_name, value in given.items():
        for k, v in enumerate(value) if field_name in ("alphas", "betas") else [(None, value)]:
            kept = held[field_name if k is None else f"{field_name}[{k}]"]
            assert np.array_equal(kept, v), field_name
            if how == "writable":
                assert not np.shares_memory(kept, v), field_name


def test_scale_grids_stay_integers(intake):
    # An int grid keeps its dtype, so its JSON holds 16, not 16.0.
    surface, _ = _build(intake, "FluctuationSurface", "list")
    config, _ = _build(intake, "MfdfaConfig", "list")
    assert surface.scales.dtype == config.scale_grid.dtype == np.dtype(int)
    assert json.dumps(surface.to_dict()["scales"][:1]) == "[16]"
    with pytest.raises(ValueError, match="scales must hold whole segment lengths"):
        mfdfa.FluctuationSurface(q_grid=surface.q_grid, scales=surface.scales + 0.5,
                                 values=surface.values)


def test_a_record_derived_from_an_edited_copy_is_rebuilt(records):
    # Editing a record's array in place could leave its derived fields stale;
    # the edit fails, and a replaced record derives them again.
    spec = records["SingularitySpectrum"]
    with pytest.raises(ValueError, match="read-only"):
        spec.alpha[0] = 99.0
    alpha = spec.alpha.copy()
    alpha[0] = 99.0
    wider = dataclasses.replace(spec, alpha=alpha)
    assert wider.width == 99.0 - spec.alpha.min()
    surface = records["FluctuationSurface"]
    with pytest.raises(ValueError, match="read-only"):
        surface.values[0, 0] = 1.0
