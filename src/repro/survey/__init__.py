"""Analytic models of the surveyed interface categories (paper Section 1)."""
