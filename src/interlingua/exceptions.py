"""Exception hierarchy shared by every module in the package.

Each class carries a short ``category`` slug; the command line layer prints
it in front of the message so failures stay grep-able.
"""


class InterlinguaError(Exception):
    category = "error"


class ShapeError(InterlinguaError):
    """Array extents do not line up for the requested operation."""

    category = "shape"


class TapeError(InterlinguaError):
    """Gradient tape misuse: mixed tapes, double attachment, missing leaf."""

    category = "tape"


class ContractError(InterlinguaError):
    """A call violated an interface precondition (bad ids, non-scalar loss)."""

    category = "contract"


class ConfigError(InterlinguaError):
    category = "config"


class LengthError(InterlinguaError):
    """A token sequence exceeds the positional table of the model."""

    category = "length"


class CompatibilityError(InterlinguaError):
    """Modules or latents with mismatched widths or unknown language tags."""

    category = "compatibility"


class DegenerateBatchError(InterlinguaError):
    """A batch or row contains nothing but padding."""

    category = "degenerate-batch"


class AlignmentError(InterlinguaError):
    """Parallel files whose line counts disagree."""

    category = "alignment"


class DivergenceError(InterlinguaError):
    """Loss became non-finite; carries the component breakdown."""

    category = "divergence"

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = dict(components or {})


class CheckpointError(InterlinguaError):
    category = "checkpoint"


class CorpusError(CheckpointError):
    """A binary corpus is damaged; a CheckpointError, as both share one format."""

    category = "corpus"


class LockError(InterlinguaError):
    """Another process holds the output directory."""

    category = "lock"
