#!/usr/bin/env python3
"""Approach of the generalized-gauge kernel to the perfect-mirror image form.

Prints the max-component deviation for a list of refractive indices together
with the analytic prediction 2/(n^2+1) * |image term| and the fitted log-log
slope (expected -2).
"""
import argparse
import sys

import numpy as np

from halfspace_qed.greens import PointPair, image_grad_grad_tensor
from halfspace_qed.kernels import perfect_reflector_convergence
from halfspace_qed.spectral import QuadratureSpec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=float, nargs="+", default=[3.0, 10.0, 30.0, 100.0])
    parser.add_argument("--r", type=float, nargs=3, default=[0.3, 0.0, 0.7])
    parser.add_argument("--rprime", type=float, nargs=3, default=[0.0, 0.2, 0.5])
    args = parser.parse_args()

    pair = PointPair(np.array(args.r), np.array(args.rprime))
    devs = perfect_reflector_convergence(pair, args.n, QuadratureSpec())
    image_scale = np.max(np.abs(image_grad_grad_tensor(pair, 1.0)))
    print("n,deviation,predicted")
    for n, dev in zip(args.n, devs):
        predicted = 2.0 / (n * n + 1.0) * image_scale
        print(f"{n:.6g},{dev:.6e},{predicted:.6e}")
    slope = np.polyfit(np.log(args.n), np.log(devs), 1)[0]
    print(f"# log-log slope: {slope:.4f} (expected -2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
