"""Slow reference implementations kept as test oracles."""
