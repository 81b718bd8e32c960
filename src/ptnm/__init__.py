"""Tensor-network toolkit for multi-time processes of open quantum systems.

The package builds process tensors of system-environment models in
matrix-product operator form, evaluates memory measures on them (operational
entanglement across a time cut, and the entropy of the effective environment
state), and fits hidden Markovian models to a target process by gradient
descent on the ansatz tensors. Its API is its submodules: ``import ptnm``
gives only ``__version__``.
"""

__version__ = "0.1.0"
