"""Exception hierarchy shared across the package.

Every error carries a ``category`` used by the CLI to produce categorized
exit messages (parse / validation / config / numeric).
"""


class DueError(Exception):
    category = "error"
    log = None  # a failed solve's convergence log, up to the failure


class ParseError(DueError):
    """Malformed instance or config file; message names file and line."""

    category = "parse"


class ValidationError(DueError):
    """Input violates a documented invariant."""

    category = "validation"


class ConfigurationError(DueError):
    """Inconsistent run setup (schedules, grids, missing pieces)."""

    category = "config"


class UnfinishedTripError(DueError):
    """A departing vehicle did not exit within the loading horizon."""

    category = "numeric"

    def __init__(self, path_id, interval):
        self.path_id = path_id
        self.interval = interval
        super().__init__(
            f"vehicle on path {path_id!r} departing in interval {interval} "
            "does not exit within the loading horizon; increase the horizon buffer"
        )
