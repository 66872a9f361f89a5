"""Exception types shared across the package."""


class MClusterError(Exception):
    """Base class for all errors raised by this package."""


class QuiverError(MClusterError, ValueError):
    """Invalid quiver input."""


class MalformedInput(QuiverError):
    """Input text does not match the quiver JSON schema."""


class CyclicQuiver(QuiverError):
    """The quiver contains a directed cycle."""


class NotDynkin(QuiverError):
    """The underlying graph is not of type A, D or E."""


class DisconnectedQuiver(QuiverError):
    """The underlying graph is not connected."""


class DimensionMismatch(QuiverError):
    """A dimension vector does not match the quiver's vertex set."""


class WindowOverflow(MClusterError):
    """An operation left the shift window, which m fixes (see
    `derived.default_window`).  On objects of the fundamental domain this
    signals a bug."""


class InternalCheckError(MClusterError):
    """An internal consistency check failed.  This signals a bug, not bad input."""


class CliqueCapExceeded(MClusterError):
    """Clique enumeration hit the configured cap."""

    def __init__(self, cap):
        super().__init__(f"more than {cap} maximal cliques; raise the cap")
        self.cap = cap
