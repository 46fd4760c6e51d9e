"""The 88100-flavoured RISC substrate: instructions, costs, executor."""
