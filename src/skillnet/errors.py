"""Exception hierarchy shared across the package."""


class SkillNetError(Exception):
    """Base class for all package errors."""


# --- graph mutation errors ---

class DuplicateId(SkillNetError):
    """A skill with this id already exists in the graph."""


class EmptyTitle(SkillNetError):
    """Skill title must be non-empty."""


class UnknownEndpoint(SkillNetError):
    """Edge endpoint refers to a skill id that is not in the graph."""


class UnknownSkill(SkillNetError):
    """Statistics update references a skill id that is not in the graph."""


class WeightOutOfRange(SkillNetError):
    """Edge weight must lie in [0, 1]."""


class DuplicateEdge(SkillNetError):
    """A bulk insert named an edge the graph already holds."""


class CycleWouldForm(SkillNetError):
    """Adding this edge would create a cycle in the dependency subgraph."""


class CycleDetected(SkillNetError):
    """Dependency subgraph contains a cycle, as a snapshot's edges can."""


class AlreadyInitialized(SkillNetError):
    """Structural edge initialization ran on a graph that already has edges."""


class SuccessWithoutUse(SkillNetError):
    """Usage counts that are not ints with 0 <= successes <= uses: a success
    without a corresponding use, or a negative or fractional count. A skill
    given a counter that is not exactly an int, or a ``deprecated`` that is
    not a bool, is refused with it too."""


# --- persistence errors ---

class ParseError(SkillNetError):
    """Malformed snapshot, config, or record file.

    Carries optional line/column context for JSON syntax failures; each
    one given is named in the message.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        at = ", ".join(f"{name} {value}" for name, value
                       in (("line", line), ("column", column)) if value is not None)
        if at:
            message = f"{message} ({at})"
        super().__init__(message)
        self.line = line
        self.column = column


class VersionMismatch(SkillNetError):
    """Snapshot file was written with an unsupported format version."""


class ConfigInvalid(SkillNetError):
    """Configuration file or object failed validation."""


# --- proposer errors ---

class ProposerError(SkillNetError):
    """Base class for teacher-proposer failures."""


class ProposerUnavailable(ProposerError):
    """The proposer could not be reached or did not answer in time."""


class ProposerParseError(ProposerError):
    """The proposer answered but its payload was not a usable JSON array."""


class SchemaViolation(SkillNetError):
    """A proposed skill record does not satisfy the proposal schema."""


# --- numeric errors ---

class LengthMismatch(SkillNetError):
    """Parallel input sequences have different lengths."""
