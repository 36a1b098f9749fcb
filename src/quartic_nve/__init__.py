"""Exact classification of invariant-plane Hamiltonians with quartic
polynomial normal variational equations, with machine-checkable
incompatibility certificates and a numeric validation layer."""

__version__ = "0.1.0"
