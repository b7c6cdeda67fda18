"""Simulation and verification toolkit for zero/one Bak-Sneppen dynamics.

Exact stationary solves on small graphs, batched Monte Carlo, stick and
block coupling statistics, oriented percolation on a strip, closed-form
bounds with their validity windows, and exhaustive drift certificates,
all behind one deterministic seeding scheme.

The package namespace carries the names of the README's library
example; everything else lives in the submodules (bslab.graphs,
bslab.dynamics, bslab.exact, bslab.montecarlo, bslab.blocks,
bslab.percolation, bslab.bounds, bslab.drift, bslab.rng).
"""
from .bounds import block2_nice_lb, choose_h, hat_L, q0, theta_4block, tilde_L
from .drift import verify_all_bounds
from .dynamics import ModelParams
from .exact import build_kernel, marginals, stationary
from .graphs import generate
from .montecarlo import marginal_from_batches, run_batches

__version__ = "0.1.0"
