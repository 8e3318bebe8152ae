"""The three cascades: plain, maxp, naivep
=======================================

All three share the wavelet-modulus propagation and low-pass windowing.
maxp pools after every modulus so layer-m nodes live on the plate D/S^m;
naivep runs the plain cascade and block-pools the finished outputs once.
"""
import numpy as np

from scatmaxp import (
    PoolConfig, SignalGrid, build_morlet_bank, compute_tree, count_paths,
    enumerate_paths, feature_summary, unit_plate,
)

rng = np.random.default_rng(3)
f = SignalGrid(unit_plate((64, 64), centered=True), rng.random((64, 64)))
bank = build_morlet_bank(2, 2, (64, 64))

# Path combinatorics: the full policy takes every (J*L)^m combination; the
# frequency-decreasing policy keeps only coarsening scale sequences.
print("full paths per depth      :", [count_paths(2, 2, m, "full") for m in range(3)])
print("freq-decreasing per depth :",
      [count_paths(2, 2, m, "frequency_decreasing") for m in range(3)])
print("example depth-2 path      :", enumerate_paths(bank, 2)[5])

trees = {
    mode: compute_tree(f, bank, mode=mode, max_depth=2, policy="full",
                       pool_cfg=PoolConfig(2, 2.0, "off"))
    for mode in ("plain", "maxp", "naivep")
}

print("\nper-layer node grids:")
for mode, tree in trees.items():
    shapes = [tree.nodes[tree.paths_at(m)[0]].shape for m in range(3)]
    print(f"  {mode:7s} {shapes}")

print("\nper-layer output grids and total feature counts:")
for mode, tree in trees.items():
    summary = feature_summary(tree, n_classes=102)
    shapes = [layer["resolution"] for layer in summary["layers"]]
    print(f"  {mode:7s} outputs {shapes}  features {summary['total_features']:7d}"
          f"  dense head {summary['dense_head_parameters']:,} parameters")

# maxp propagates strictly fewer samples: each depth-m layer shrinks by S^2m.
plain_samples = trees["plain"].total_node_samples()
maxp_samples = trees["maxp"].total_node_samples()
print(f"\npropagated samples: plain {plain_samples}, maxp {maxp_samples}")

# Parameter counts of the reference 224x224 classification models (J=3, L=8,
# depth 2, frequency-decreasing paths, dense head 512-512-256-256 -> 102),
# counted from the trees the cascades build, every mode's outputs subsampled
# by 2^J. The README's "Paper parameter counts" note says which operators the
# differing counts would need.
print("\nreference 224x224 models, dense-head parameters:")
paper = {"plain": 87_592_038, "maxp": 9_944_166, "naivep": 11_596_902}
big = SignalGrid(unit_plate((224, 224), centered=True), rng.random((224, 224)))
big_bank = build_morlet_bank(3, 8, (224, 224))
for mode, reported in paper.items():
    tree = compute_tree(big, big_bank, mode=mode, max_depth=2, policy="frequency_decreasing",
                        pool_cfg=PoolConfig(2, 2.0, "off"), output_subsample=True)
    counted = feature_summary(tree, n_classes=102)["dense_head_parameters"]
    verdict = "match" if counted == reported else "differs"
    print(f"  {mode:7s} counted {counted:>11,}  reported {reported:>11,}  {verdict}")
