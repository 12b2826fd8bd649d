"""Networked proof-of-work blockchain simulator."""

from .blocks import Block, StructuralError, Transaction, derive_block_id, make_placeholder
from .admin import AdminServer, SimulationConfig
from .chain import (
    ActionKind,
    ConsensusEntry,
    LocalChainState,
    UpdateAction,
    apply_created_block,
    apply_received_block,
    fill_empty_blocks,
    finalize_state,
    reconstruct_chain,
    select_consensus_winner,
)
from .engine import RunResult, run_logical
from .harness import ExperimentSpec, fairness_check, load_spec, run_experiment
from .miner import MinerNode

__all__ = [
    "ActionKind",
    "AdminServer",
    "Block",
    "ConsensusEntry",
    "ExperimentSpec",
    "LocalChainState",
    "MinerNode",
    "RunResult",
    "SimulationConfig",
    "StructuralError",
    "Transaction",
    "UpdateAction",
    "apply_created_block",
    "apply_received_block",
    "derive_block_id",
    "fairness_check",
    "fill_empty_blocks",
    "finalize_state",
    "load_spec",
    "make_placeholder",
    "reconstruct_chain",
    "run_experiment",
    "run_logical",
    "select_consensus_winner",
]

__version__ = "0.1.0"
