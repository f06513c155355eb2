"""Classical toolkit for product-formula simulation of sparse Hamiltonians.

Pieces: higher-order product formulas with rigorous step-count and error
bounds (suzuki), decomposition of d-sparse Hamiltonians into 1-sparse pieces
through an iterated-logarithm edge coloring (coloring), closed-form 1-sparse
evolution with query accounting (one_sparse, oracle), a parity family that
pins the query lower bound (parity), one planner that chooses the order
and slice count of every run and applies its plan (planner), and a CLI
tying them together (cli).
"""

__version__ = "0.1.0"
