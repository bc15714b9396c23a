"""Optimization of quantum error-correcting encodings and recoveries
for repeated uses of a noisy qubit channel.  The sweep runner and the
console script are in :mod:`seesawqec.cli`, which is not imported here."""

from .channels import (Channel, ChoiMatrix, amplitude_damping, apply,
                       channel_fidelity, compose, from_choi, identity_channel,
                       max_entangled_vector, tensor_power, to_choi)
from .codes import Isometry, leung_encoder, partial_trace_recovery, trivial_embedding
from .optimizer import (HalfResult, SeesawResult, SolveOptions, fidelity_operator_recovery,
                        optimize_recovery_multistarts, random_cptp, random_isometry, seesaw)
from .grid import ColdRestarts, cold_restarts
from .workers import WorkerError

__all__ = [
    "Channel", "ChoiMatrix", "amplitude_damping", "apply", "channel_fidelity",
    "compose", "from_choi", "identity_channel", "max_entangled_vector",
    "tensor_power", "to_choi",
    "Isometry", "leung_encoder", "partial_trace_recovery", "random_isometry",
    "trivial_embedding",
    "ColdRestarts", "HalfResult", "SeesawResult", "SolveOptions", "WorkerError",
    "cold_restarts", "fidelity_operator_recovery", "optimize_recovery_multistarts",
    "random_cptp", "seesaw",
]

__version__ = "0.1.0"
