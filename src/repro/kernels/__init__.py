"""Handwritten Table 1 kernels: protocol, sequences, harness, paper data."""
