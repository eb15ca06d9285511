"""Exception hierarchy shared by all workbench modules."""


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(WorkbenchError):
    """Operands with incompatible dimensions."""


class DegenerateRowError(WorkbenchError):
    """A softmax/attention row with no finite (visible) entry."""


class LayoutError(WorkbenchError):
    """Invalid prompt layout or layout/policy mismatch."""


class PolicyError(WorkbenchError):
    """Invalid decision policy or policy domain too short."""


class CacheCoherenceError(WorkbenchError):
    """KV-cache tag ordering violated by an ingested token."""


class ConfigError(WorkbenchError):
    """Invalid model or experiment configuration."""


class DataError(WorkbenchError):
    """Invalid corpus, trace, or other input data."""


class NumericError(WorkbenchError):
    """Non-finite numbers: logits, a loss, or a gradient norm."""


class ConsistencyError(WorkbenchError):
    """Cross-object mismatch, e.g. a trace that does not fit a layout."""
