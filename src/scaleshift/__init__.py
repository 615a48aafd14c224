"""Exact combinatorics of musical scales derived from shift spaces.

The library builds vertex shifts and shifts of finite type, derives the
integer compositions ("scales") their languages induce via the distinguished
symbol rule, and computes transversal and orbital counting series for those
scale classes, all in exact integer arithmetic.
"""

__version__ = "0.1.0"
