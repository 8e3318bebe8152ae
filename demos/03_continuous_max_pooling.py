"""Continuous max-pooling on plates
================================

The pooling operator partitions a plate into congruent sub-plates, replaces
|f| on each by its largest sample, and shrinks the plate by the pooling
factor S.  Two properties carry the cascade's theory: the L2 contraction
(for admissible S) and bit-exact commutation with plate translation.
"""
import numpy as np

from scatmaxp import (
    PlatePartition, SignalGrid, l2_norm, max_pool, min_admissible_factor,
    translate_with_plate, unit_plate,
)

rng = np.random.default_rng(7)
plate = unit_plate((64, 64), centered=True)
partition = PlatePartition(plate, (32, 32))  # 2x2-sample sub-plates
print("sub-plates:", partition.n_blocks, "of", partition.samples_per_block, "samples")

# Admissibility: where a sub-plate maps to more than one output cell, S must
# exceed (|D| (||f||_inf / ||f||_2)^2)^(1/d).  Flat signals clear the bar
# easily; sparse spikes do not.
flat = SignalGrid(plate, rng.random((64, 64)))
spiky_values = np.zeros((64, 64))
spiky_values[5, 9] = 1.0
spiky = SignalGrid(plate, spiky_values)
print("\nthreshold for a flat signal :", min_admissible_factor(flat))
print("threshold for a single spike:", min_admissible_factor(spiky))

# Pooling the flat signal with S=2 contracts the L2 norm.
pooled = max_pool(flat, partition, 2.0)
print("\npooled plate:", pooled.plate.side_lengths, "with", pooled.shape, "samples")
print("contraction ratio ||P(f)||/||f|| =", l2_norm(pooled) / l2_norm(flat))

# For a constant the ratio is exactly S^(-d/2): the value survives, the
# plate loses volume.
const = SignalGrid(plate, np.full((64, 64), 0.3))
print("constant-signal ratio (expect 0.5):",
      l2_norm(max_pool(const, partition, 2.0, "off")) / l2_norm(const))

# Commutation with plate translation: pooling the moved plate equals moving
# the pooled plate by c/S, bit for bit.
c = (0.25, 0.0)  # a whole number of sub-plates
moved = translate_with_plate(flat, c)
lhs = max_pool(moved, PlatePartition(moved.plate, (32, 32)), 2.0, "off")
rhs = translate_with_plate(max_pool(flat, partition, 2.0, "off"), (0.125, 0.0))
print("\ncommutation bit-exact:",
      lhs.plate == rhs.plate and np.array_equal(lhs.values, rhs.values))

# With 2x2-sample sub-plates and S=2 each sub-plate maps to one output cell,
# which contracts every signal, so strict mode pools even the spike.  With
# 4x4-sample sub-plates each maps to 2x2 cells, and strict admissibility turns
# the threshold into a hard error.
print("\nstrict mode, 2x2-sample sub-plates: spike ratio",
      l2_norm(max_pool(spiky, partition, 2.0, "strict")) / l2_norm(spiky))
try:
    max_pool(spiky, PlatePartition(plate, (16, 16)), 2.0, "strict")
except Exception as exc:
    print("strict mode, 4x4-sample sub-plates:", type(exc).__name__, "-", exc)
