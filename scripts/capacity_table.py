#!/usr/bin/env python3
"""Print capacity values F(k, L) for the builtin activations.

Quadratic values stay polynomial in L and are printed directly; the
saturating activations blow up doubly exponentially, so their depth-1 values
are shown in log10 and deeper levels report the series budget failure.
"""

import os
import sys

from reckernel.activation import SeriesDivergenceError, builtin_activation, compute_F


def run():
    print(f"{'activation':<16}{'k':>3}{'L':>6}   value")
    for name in ("quadratic", "shifted_erf", "smoothed_hinge"):
        act = builtin_activation(name)
        for L in (0.5, 1.0, 2.0):
            for k in (1, 2, 4, 6):
                try:
                    rep = compute_F(act, k, L)
                    v = rep.value
                    shown = f"{v.to_float():.6g}" if v.log10 < 12 else f"1e{v.log10:.4g}"
                except SeriesDivergenceError as e:
                    shown = f"series budget exceeded at level {e.level}"
                print(f"{name:<16}{k:>3}{L:>6}   {shown}")


if __name__ == "__main__":
    try:
        run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (``| head``): send what is still buffered to devnull,
        # so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
