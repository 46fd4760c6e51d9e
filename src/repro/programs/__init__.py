"""The evaluation programs: matmul, Gamteb, and N-Queens on TAM."""
