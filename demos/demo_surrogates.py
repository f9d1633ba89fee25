"""Surrogate battery: which features of the returns carry the correlation?

Each surrogate destroys one structure while preserving another, and the top
eigenvalue lambda_1 reports what survived:

  rotate_free        kills cross-correlation, keeps each autocorrelation
  rotate_daily       kills cross-correlation but keeps time-of-day alignment
  shuffle_signs      keeps magnitudes in place, scrambles signs
  shuffle_magnitudes keeps signs in place, scrambles magnitudes
  signs_only         discards magnitudes entirely
  magnitudes_only    discards signs entirely

On a one-factor market the sign-scrambled panel loses nearly all of
lambda_1 while the magnitude-scrambled panel keeps a sizable share: the
collective mode lives mostly in the signs, yet magnitude comovement alone
(volatility) still correlates the panel.

Run:  python3 demos/demo_surrogates.py
"""

from xcorr.panel import standardize
from xcorr.spectrum import correlation_matrix, eigendecompose, mp_bounds
from xcorr.surrogate import KINDS, SurrogateSpec, apply_surrogate
from xcorr.synth import MarketModel, generate


def lambda1(panel):
    return eigendecompose(correlation_matrix(standardize(panel))).eigenvalues[0]


def main():
    model = MarketModel(n_assets=60, t_length=12000, bars_per_day=100,
                        market_loading=0.4685, seed=2)
    panel = generate(model)
    bounds = mp_bounds(panel.t_length / panel.n_assets)
    base = lambda1(panel)
    print(f"one-factor panel: N={panel.n_assets}, T={panel.t_length}")
    print(f"lambda_1 = {base:.2f}   (MP bulk edge {bounds.lambda_max:.3f})\n")
    print(f"{'surrogate':<20}{'lambda_1':>10}{'share kept':>12}")
    for kind in KINDS:
        lam = lambda1(apply_surrogate(panel, SurrogateSpec(kind=kind, seed=1)))
        print(f"{kind:<20}{lam:>10.3f}{lam / base:>12.3f}")
    print("\nrotation surrogates land at the bulk edge: the factor is gone.")
    print("signs carry most of the mode; magnitudes alone still clear the bulk.")


if __name__ == "__main__":
    main()
