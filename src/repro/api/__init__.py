"""High-level user API: clusters and remote operations."""
