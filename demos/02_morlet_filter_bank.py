"""Morlet filter banks and the frame identity
==========================================

The bank holds J*L zero-mean Morlet wavelets plus one Gaussian low-pass,
built directly on the discrete frequency lattice.  The cascade's theory
assumes the energy identity

    |phi_hat(w)|^2 + 1/2 sum_l (|psi_hat(w)|^2 + |psi_hat(-w)|^2) = 1,

and the bank's frame defect measures the worst-case deviation from it.
"""
import numpy as np

from scatmaxp import (
    build_morlet_bank, build_partition_bank, frame_defect,
    littlewood_paley_sum, theorem_constant_B,
)

# Raw kymatio-style Morlets (sigma0=0.8, xi0=3pi/4, slant=4/L) do not come
# close to the identity: coverage dips between scales and collapses at the
# lattice corners.
raw = build_morlet_bank(3, 8, (128, 128), equalize=False)
raw_sum = littlewood_paley_sum(raw.psi_hat.values(), raw.phi_hat)
print("raw bank      : LP sum in [%.3f, %.3f], frame defect %.3f"
      % (raw_sum.min(), raw_sum.max(), frame_defect(raw)))

# The default construction therefore finishes with a Littlewood-Paley
# equalization: one symmetric per-frequency gain on the wavelet part makes
# the identity exact on the lattice (up to rounding).
bank = build_morlet_bank(3, 8, (128, 128))
eq_sum = littlewood_paley_sum(bank.psi_hat.values(), bank.phi_hat)
print("equalized bank: LP sum in [%.15f, %.15f]" % (eq_sum.min(), eq_sum.max()))
print("                frame defect %.3g" % frame_defect(bank))

# Every wavelet keeps zero mean, and the low-pass keeps unit DC gain.
print("\nmax |psi_hat(0)| over the bank:",
      max(abs(v[0, 0]) for v in bank.psi_hat.values()))
print("phi_hat(0):", bank.phi_hat[0, 0])

# The exact-partition fixture is the idealized comparison point: indicator
# filters tiling the lattice, frame defect exactly zero.
fixture = build_partition_bank(3, 8, (128, 128))
print("\npartition fixture frame defect:", frame_defect(fixture))

# The translation-invariance theorem needs B with |phi_hat(w)| |w| < B.  For a
# Gaussian low-pass the maximum sits at |w| = 1/sigma with value e^-1/2/sigma.
sigma = bank.spec.morlet_params.sigma0 * 2 ** (bank.J - 1)
print("\nB measured:", theorem_constant_B(bank))
print("B analytic e^-1/2 / sigma_phi:", np.exp(-0.5) / sigma)

# Banks are realized on any grid the pooled cascade produces, at matching
# physical scale; a grid whose axes divide the bank's is a sub-lattice of it,
# so its filters are the bank's, sampled, and the identity holds there too.
psi32, phi32 = bank.realize((32, 32))
defect32 = np.max(np.abs(1.0 - littlewood_paley_sum(psi32.values(), phi32)))
print("\nframe defect on the realized 32x32 lattice:", defect32)
