"""Sparse variational GP regression with certified approximation quality."""

__version__ = "0.1.0"
