"""RAM-based deep Q-learning at desk scale.

Trains small Q-networks on bundled deterministic micro-games whose state is
exposed both as a 128-byte RAM vector and as a grayscale screen, mirroring
the Atari 2600 observation structure.
"""

from .tensor_core import (
    LayerSpec,
    NetworkGraph,
    ShapeError,
    backward,
    forward,
    gradient_check,
    make_network,
)
from .optim import RmsPropState, q_loss_grad, rmsprop_state_for, rmsprop_step
from .replay import Minibatch, ReplayMemory
from .envs import (
    ENV_REGISTRY,
    PhiBuffer,
    frame_skip_step,
    make_env,
    scale_ram,
)
from .agents import (
    ARCHITECTURES,
    HyperParams,
    build_architecture,
    compute_targets,
    epsilon_at,
    greedy_action,
    select_action,
    train_step,
)
from .harness import (
    EpochReport,
    ExperimentConfig,
    TrainingError,
    TrainingState,
    checkpoint_load,
    checkpoint_save,
    load_params_into,
    network_from_checkpoint,
    run_experiment,
    run_test_period,
    run_training_epoch,
)

__version__ = "0.1.0"
