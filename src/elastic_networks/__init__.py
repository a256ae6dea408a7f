"""Elastic flow of curve networks with one movable junction.

Simulates the L^2 gradient flow of the penalized elastic energy
(bending plus a length penalty) for networks of curves in R^n joined
at a single movable junction, with fixed outer endpoints.
"""

__version__ = "0.1.0"
