"""Tensor-network toolkit for multi-time processes of open quantum systems.

The package builds process tensors of system-environment models in
matrix-product operator form, evaluates memory measures on them (operational
entanglement across a time cut, and the entropy of the effective environment
state), and fits hidden Markovian models to a target process by gradient
descent on the ansatz tensors.
"""

from .channels import (
    ChannelTensor,
    KrausChannel,
    LindbladSpec,
    kraus_to_w,
    lindblad_superoperator,
    random_cptp_channel,
    superop_to_kraus,
)
from .measures import (
    env_state,
    measure_series,
    memory_complexity,
    nm_ee,
    osee,
)
from .models import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    UQDMParams,
    XXChainParams,
    ruqdm_channel,
    uqdm_coherence,
    uqdm_env_entropy,
    uqdm_memory_series,
    uqdm_model,
    uqdm_overlaps,
    xx_chain_liouvillian,
    xx_chain_model,
    xx_chain_unitary,
)
from .process_tensor import (
    MaterializationLimitError,
    ProcessTensorMPDO,
    build,
    check_containment,
    inner_product,
    materialize,
    norm_sq,
)
from .tensorops import (
    Spectrum,
    check_density_matrix,
    check_hermitian,
    check_unitary,
    matrix_exp,
    renyi_entropy,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelTensor",
    "KrausChannel",
    "LindbladSpec",
    "MaterializationLimitError",
    "ProcessTensorMPDO",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "SIGMA_Z",
    "Spectrum",
    "UQDMParams",
    "XXChainParams",
    "build",
    "check_containment",
    "check_density_matrix",
    "check_hermitian",
    "check_unitary",
    "env_state",
    "inner_product",
    "kraus_to_w",
    "lindblad_superoperator",
    "materialize",
    "matrix_exp",
    "measure_series",
    "memory_complexity",
    "nm_ee",
    "norm_sq",
    "osee",
    "random_cptp_channel",
    "renyi_entropy",
    "ruqdm_channel",
    "superop_to_kraus",
    "uqdm_coherence",
    "uqdm_env_entropy",
    "uqdm_memory_series",
    "uqdm_model",
    "uqdm_overlaps",
    "von_neumann_entropy",
    "xx_chain_liouvillian",
    "xx_chain_model",
    "xx_chain_unitary",
    "__version__",
]
