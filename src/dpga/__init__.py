"""Deterministic simulator for delayed partial gradient averaging."""

from .data import Dataset, PartitionConfig, gen_synthetic, partition, partition_stats
from .engine import (MetricsRecord, SimConfig, Simulation, comm_time, derive_D,
                     objective, run_experiment)
from .errors import (ConfigurationError, ContractViolationError, DecodeError,
                     ProtocolError)
from .masking import (SparseGradient, decode, encode, extract_shared,
                      message_bytes, shared_count, topk_shared_indices)
from .models import (Batch, ModelSpec, evaluate, finite_diff_check, init_params,
                     loss_and_gradient)
from .protocol import (ClientState, GlobalAggregate, PendingRound,
                       apply_correction, build_upload, local_round,
                       pairwise_mean, pairwise_sum, server_aggregate,
                       static_partial_mask)
from .ratewalk import RateState, one_step_matrix, transition_distribution

__version__ = "0.1.0"
