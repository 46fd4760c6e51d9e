"""A processor node: local memory, I-structures, handlers, run loop."""
