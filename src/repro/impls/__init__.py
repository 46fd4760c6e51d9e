"""The three placements × two architectures: the six evaluated models."""
