"""Exception types shared across the workbench."""


class DctError(Exception):
    """Base class for all workbench errors."""


class ConfigurationError(DctError):
    """Invalid group parameters, scheme config, or scenario wiring."""


class ProtocolError(DctError):
    """A scheme client was driven outside its legal state machine."""


class HandshakeError(DctError):
    """Peer sent an invalid public key or the exchange cannot proceed."""


class CapabilityError(DctError):
    """A simulated action was attempted without the scenario granting it."""


class UploadRejected(DctError):
    """Server rejected an upload bundle; .reason carries the cause."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class FieldError(DctError):
    """An input field breaks the rule of its table; the message names its JSON path."""


class StateError(DctError):
    """A persisted server state log cannot be replayed."""


class ScenarioError(DctError):
    """Scenario file could not be loaded or is structurally invalid."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
