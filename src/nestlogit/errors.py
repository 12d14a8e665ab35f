"""Exception types shared across the package.

Model-construction problems all derive from InvalidModelError so callers
(and the CLI) can catch one base class; numeric domain violations get
their own root, DomainError.
"""


class NestLogitError(Exception):
    """Base class for every error raised by this package."""


class InvalidModelError(NestLogitError, ValueError):
    """A nest tree or model description violates a structural rule."""


class DuplicateIdError(InvalidModelError):
    """The same node id appears more than once."""


class CycleError(InvalidModelError):
    """The child relation loops back on itself, so there is no tree."""


class EmptyNestError(InvalidModelError):
    """A nest has no children; every nest must contain something."""


class LambdaRangeError(InvalidModelError):
    """A nest dissimilarity parameter is missing or outside (0, 1]."""


class RootLambdaError(InvalidModelError):
    """The root's dissimilarity parameter must be exactly 1."""


class OrphanNodeError(InvalidModelError):
    """A declared node is not reachable from the root."""


class UnknownNodeError(InvalidModelError, KeyError):
    """A node id was referenced that the tree does not contain."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class NotANestError(InvalidModelError):
    """A leaf id was used where a nest id is required."""


class NotALeafError(InvalidModelError):
    """A nest id was used where a leaf id is required."""


class ShapeError(InvalidModelError):
    """The tree does not have the layout an operation requires."""


class RootHasNoParentError(InvalidModelError):
    """The root was used in an operation that needs a parent nest."""


class UtilityError(InvalidModelError):
    """A utility or bound map does not cover exactly the leaf set, or is not finite."""


class ModelFileError(InvalidModelError):
    """A model file fails to parse or violates the document schema."""


class DomainError(NestLogitError, ValueError):
    """A numeric argument lies outside the domain of the requested quantity."""
