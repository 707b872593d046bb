"""2D nodal finite element solver for the augmented curl-curl problem with
weakly (Nitsche) or strongly imposed Dirichlet data, plus a convergence-study
harness reproducing reference error tables on square, L-shaped and curved-L
domains."""

__version__ = "0.1.0"
