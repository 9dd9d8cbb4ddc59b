"""Game-based behavior identification and transfer between two players."""

from __future__ import annotations

__version__ = "0.1.0"

from .behavior_data import (
    ATTRIBUTE_COLUMNS,
    CLASS_COLUMN,
    DATASET_COLUMNS,
    DOMAINS,
    AttributeId,
    DataSet,
    PlayerId,
    SessionLog,
    StimulusContext,
    Violation,
    split,
    to_dataset,
    validate_session,
)
from .bayes import (
    BayesNet,
    Cpt,
    Dag,
    LearnConfig,
    accuracy,
    bic_score,
    class_posterior,
    classify,
    fit_cpts,
    learn_structure,
    markov_blanket,
)
from .config import ExperimentConfig, load_config, parse_config, serialize_config
from .errors import ConfigError, DataValidationError
from .game_domain import (
    ConditionKey,
    PlayerProfile,
    Scenario,
    default_scenario,
    run_session,
    table1_profiles,
)
from .transfer_loop import (
    DatasetConfig,
    IdentificationResult,
    TerminalReason,
    TransferConfig,
    TransferParams,
    TransferTrace,
    build_schedule,
    discriminative_attributes,
    divergence,
    nudge_profile,
    run_identification,
    run_transfer,
)
