"""Convergence of direction-randomized signatures to the uniform profile.

Fixes one undirected skeleton, redraws every edge direction uniformly
over {forward, backward, reciprocal} for a growing number of seeds, and
tracks how far the running mean of the normalized signature sits from
the block-uniform profile (1/3 per degree column, 1/6 per wedge column,
1/7 per triangle column).  The deviation should shrink roughly like
1/sqrt(seeds).

Usage:
    python3 scripts/null_model_convergence.py --n 300 --p 0.2 --seeds 32
"""

import argparse

import numpy as np

from digraphlets import (
    SIGNATURE_COLUMNS,
    normalize,
    random_digraph,
    randomize_directions,
    signature_matrix,
    uniform_profile,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=300, help="vertex count")
    ap.add_argument("--p", type=float, default=0.2,
                    help="connection probability per vertex pair")
    ap.add_argument("--seeds", type=int, default=32,
                    help="number of direction redraws to average")
    ap.add_argument("--skeleton-seed", type=int, default=424242)
    ap.add_argument("--mode", default="balanced",
                    choices=("balanced", "plain"),
                    help="normalization mode fed to the comparison")
    args = ap.parse_args()

    skeleton = random_digraph(args.n, args.p, seed=args.skeleton_seed)
    target = uniform_profile()
    running = np.zeros(16)
    print(f"skeleton: n={skeleton.n}, connected pairs="
          f"{len(skeleton.keys)}")
    print(f"{'seeds':>5}  {'Linf deviation':>14}")
    for k in range(args.seeds):
        g = randomize_directions(skeleton, seed=k)
        norm = normalize(signature_matrix(g), mode=args.mode)
        running += norm.values.mean(axis=0)
        mean = running / (k + 1)
        deviation = float(np.abs(mean - target).max())
        print(f"{k + 1:>5}  {deviation:>14.6f}")

    mean = running / args.seeds
    print("\nfinal mean profile vs target:")
    for name, got, want in zip(SIGNATURE_COLUMNS, mean, target):
        print(f"  {name:<14} {got:.4f}  (target {want:.4f})")


if __name__ == "__main__":
    main()
