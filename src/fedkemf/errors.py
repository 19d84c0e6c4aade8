"""Exception hierarchy shared across the simulator.

Each top-level error family carries the process exit code the CLI maps it to.
"""


class FedKemfError(Exception):
    exit_code = 1


class ConfigError(FedKemfError):
    """Bad or inconsistent experiment configuration."""

    exit_code = 2


class DataError(FedKemfError):
    """Dataset loading or partitioning failure."""

    exit_code = 3


class BadMagicError(DataError):
    pass


class TruncatedFileError(DataError):
    pass


class BadHeaderError(DataError):
    """A checkpoint header of an unsupported version, or one that describes no valid network."""


class ShapeMismatchError(DataError):
    """A network whose input width or class count (or a test set whose width) misfits the data."""


class CountMismatchError(DataError):
    pass


class InfeasiblePartitionError(DataError):
    pass


class DivergenceError(FedKemfError):
    """Non-finite logits, gradients or parameters in training, distillation or evaluation."""

    exit_code = 4

    def __init__(self, message, client_id=None, epoch=None, batch_index=None, round_index=None):
        super().__init__(message)
        self.client_id = client_id
        self.epoch = epoch
        self.batch_index = batch_index
        self.round_index = round_index
