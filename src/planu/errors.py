"""Exception types shared across the package."""


class PlanuError(Exception):
    """Base class for planu-specific failures."""


class SearchError(PlanuError):
    """Raised when a tree operation is applied to an invalid node."""


class EnvError(PlanuError):
    """Illegal or malformed action submitted to an environment."""


class ConfigError(PlanuError):
    """Invalid experiment configuration; carries a list of diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))
