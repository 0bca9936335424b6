"""Solver toolkit for fuel-constrained multi-vehicle routing under uncertainty."""

__version__ = "0.1.0"
