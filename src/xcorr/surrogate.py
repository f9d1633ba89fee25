"""Surrogate panels that selectively destroy or preserve correlation structure.

Six kinds: free and day-restricted circular rotations, sign and magnitude
reshuffles, and the deterministic sign-only / magnitude-only panels.  All
randomized kinds draw from one counter-based stream per row (stream id = row
index), so results are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .panel import ReturnPanel, _each_block, _frozen, _kept_rows, _record, _standardized_rows
from .synth import _seed, _stream

__all__ = [
    "KINDS",
    "SurrogateSpec",
    "rotate_free",
    "rotate_daily",
    "shuffle_signs",
    "shuffle_magnitudes",
    "signs_only",
    "magnitudes_only",
    "apply_surrogate",
]

KINDS = (
    "rotate_free",
    "rotate_daily",
    "shuffle_signs",
    "shuffle_magnitudes",
    "signs_only",
    "magnitudes_only",
)


@dataclass
class SurrogateSpec:
    """Which randomization to apply and with which seed.

    ``seed`` is ignored by the two deterministic kinds but kept so every spec
    round-trips through config files unchanged.
    """

    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown surrogate kind {self.kind!r}; choose one of {KINDS}")
        self.seed = _seed(self.seed)

    to_dict = _record


def _rotate(r: ReturnPanel, seed, unit) -> ReturnPanel:
    """Roll each row by an independent whole number of `unit`-bar blocks."""
    full = r.t_length
    t = full - full % unit
    if t < full:
        warnings.warn(f"trimming trailing partial day: {full - t} of {full} bars dropped")
    rows = np.empty((r.n_assets, t))

    def roll(b):
        for i, x in enumerate(r.returns[b], b.start):
            offset = int(_stream(seed, i).integers(0, t // unit)) * unit
            rows[i, offset:] = x[: t - offset]
            rows[i, :offset] = x[t - offset : t]

    _each_block(roll, r.returns)
    return replace(r, returns=_frozen(rows), standardized=r.standardized and t == full)


def rotate_free(r: ReturnPanel, seed) -> ReturnPanel:
    """Cyclically shift each row by an independent uniform offset in [0, T).

    Rotation preserves each row's value multiset and (up to wrap-around) its
    autocorrelation, but decouples the rows from each other.
    """
    return _rotate(r, seed, 1)


def rotate_daily(r: ReturnPanel, seed) -> ReturnPanel:
    """Like rotate_free but offsets are whole trading days.

    Day-periodic structure (shared intraday activity patterns) survives this
    rotation.  A trailing partial day is trimmed with a warning; the trimmed
    panel is no longer exactly standardized, so the flag is cleared in that
    case and the caller should re-standardize.
    """
    return _rotate(r, seed, r.bars_per_day)


def _shuffle(r: ReturnPanel, seed, signs) -> ReturnPanel:
    """Permute each row's sign (`signs`) or magnitude sequence, the other in place."""
    rows = np.empty_like(r.returns)

    def permute(b):
        for i, x in enumerate(r.returns[b], b.start):
            perm = _stream(seed, i).permutation(r.t_length)
            if signs:
                np.multiply(np.sign(x)[perm], np.abs(x), out=rows[i])
            else:
                np.multiply(np.sign(x), np.abs(x)[perm], out=rows[i])

    _each_block(permute, r.returns)
    return replace(r, returns=_frozen(rows), standardized=False)


def shuffle_signs(r: ReturnPanel, seed) -> ReturnPanel:
    """Permute each row's sign sequence; magnitudes stay in place.

    Zero returns carry sign 0 and take part in the permutation like any other
    value.  The output is generally no longer standardized.
    """
    return _shuffle(r, seed, signs=True)


def shuffle_magnitudes(r: ReturnPanel, seed) -> ReturnPanel:
    """Permute each row's magnitude sequence; signs stay in place."""
    return _shuffle(r, seed, signs=False)


def _replace_rows(r: ReturnPanel, f, what: str) -> ReturnPanel:
    """Standardize the rows of ``f(r.returns)``, dropping zero-variance ones with a warning."""
    rows, flat = _standardized_rows(r.returns, r.assets, f)
    for name in [a for a, k in zip(r.assets, flat) if k]:
        warnings.warn(f"asset {name} has constant {what}; dropped")
    if flat.all():
        raise ValueError(f"every asset has a constant {what} series")
    assets = [a for a, k in zip(r.assets, flat) if not k]
    return replace(r, assets=assets, returns=_kept_rows(rows, ~flat), standardized=True)


def signs_only(r: ReturnPanel) -> ReturnPanel:
    """Replace each row by its standardized sign series (deterministic)."""
    return _replace_rows(r, np.sign, "sign")


def magnitudes_only(r: ReturnPanel) -> ReturnPanel:
    """Replace each row by its standardized magnitude series (deterministic)."""
    return _replace_rows(r, np.abs, "magnitude")


def apply_surrogate(r: ReturnPanel, spec: SurrogateSpec) -> ReturnPanel:
    """Dispatch on spec.kind; the single entry point used by the CLI."""
    if not isinstance(spec, SurrogateSpec):
        raise ValueError(f"spec must be a SurrogateSpec, got {spec!r}")
    if spec.kind == "rotate_free":
        return rotate_free(r, spec.seed)
    if spec.kind == "rotate_daily":
        return rotate_daily(r, spec.seed)
    if spec.kind == "shuffle_signs":
        return shuffle_signs(r, spec.seed)
    if spec.kind == "shuffle_magnitudes":
        return shuffle_magnitudes(r, spec.seed)
    if spec.kind == "signs_only":
        return signs_only(r)
    return magnitudes_only(r)
