"""Peeling collective modes out of a market+sectors panel.

The synthetic market has one market factor and two sector factors, so its
correlation spectrum shows three eigenvalues above the Marchenko-Pastur bulk.
Regressing out the top eigensignal removes the market mode and leaves the two
sector modes standing; two more passes push the residual spectrum back into
the bulk.  Each removal pins one eigenvalue at exactly zero while the total
risk (trace = N) is conserved.

Run:  python3 demos/demo_mode_removal.py
"""

import numpy as np

from xcorr.modes import remove_modes_iterative
from xcorr.spectrum import correlation_matrix, eigendecompose, mp_bounds, overlap_fraction
from xcorr.synth import generate, preset


def main():
    # full preset size: at small N the trace re-inflation by N/(N-k) after k
    # removals visibly lifts the residual bulk past the fixed MP edge
    panel = generate(preset("market_sectors", seed=0))
    bounds = mp_bounds(panel.t_length / panel.n_assets)
    print(f"panel: N={panel.n_assets}, T={panel.t_length}; "
          f"MP bulk [{bounds.lambda_min:.3f}, {bounds.lambda_max:.3f}]")

    # One run of three passes; it records the spectrum entering each pass, so
    # only the final residual still needs diagonalizing.
    residual = remove_modes_iterative(panel, 3)
    spectra = [*residual.spectra, eigendecompose(correlation_matrix(residual.panel))]
    beta1 = residual.betas[0]
    for count, spectrum in enumerate(spectra):
        label = "original" if count == 0 else f"after {count} removal pass(es)"
        lam = spectrum.eigenvalues
        above = int((lam > bounds.lambda_max).sum())
        print(f"\n{label}:")
        print(f"  top eigenvalues : {np.array2string(lam[:5], precision=3)}")
        print(f"  above the bulk  : {above}")
        print(f"  bulk overlap    : {overlap_fraction(spectrum, bounds):.3f}")
        print(f"  trace           : {lam.sum():.6f} (N = {spectrum.n_series})")
        if count:
            print(f"  exact zero modes: {int((lam < 1e-10).sum())}")
            print(f"  pass-1 market betas: min {beta1.min():+.3f} max {beta1.max():+.3f}")


if __name__ == "__main__":
    main()
