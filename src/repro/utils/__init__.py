"""Shared low-level utilities: bit fields, deterministic RNG, report tables."""
