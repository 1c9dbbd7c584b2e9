"""Exception hierarchy shared across the library."""


class JnoError(Exception):
    """Base class for all library errors."""


# -- tensor / autodiff ------------------------------------------------------

class ShapeMismatch(JnoError):
    pass


class InvalidAxis(JnoError):
    pass


class IndexOutOfRange(JnoError):
    pass


class NonScalarOutput(JnoError):
    pass


class UnknownNode(JnoError):
    pass


# -- tracing ----------------------------------------------------------------

class ArityMismatch(JnoError):
    pass


class NotAVariable(JnoError):
    pass


class MissingBinding(JnoError):
    pass


class ExtraBinding(JnoError):
    pass


class NonPositiveInterval(JnoError):
    pass


class ShapeInferenceFailure(JnoError):
    def __init__(self, node, message):
        super().__init__(message)
        self.node = node


# -- domain -----------------------------------------------------------------

class DegenerateGeometry(JnoError):
    pass


class UnsupportedGeometry(JnoError):
    pass


class UnknownTag(JnoError):
    pass


class BadShape(JnoError):
    pass


class TagMismatch(JnoError):
    pass


class CountExceedsPool(JnoError):
    pass


class NotABoundaryTag(JnoError):
    pass


class ParseError(JnoError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedElement(JnoError):
    pass


# -- evaluator --------------------------------------------------------------

class UnboundVariable(JnoError):
    pass


class NaNDetected(JnoError):
    def __init__(self, node, message):
        super().__init__(message)
        self.node = node


class NonDifferentiablePath(JnoError):
    pass


class PointOutsideMesh(JnoError):
    pass


class DegenerateNeighborhood(JnoError):
    pass


class ModelNotInitialized(JnoError):
    pass


class InputRankMismatch(JnoError):
    pass


# -- fem --------------------------------------------------------------------

class UnknownBcTag(JnoError):
    pass


class TargetMismatch(JnoError):
    pass


class UnassembledSymbol(JnoError):
    pass


class NonlinearTerm(JnoError):
    pass


class TrialSymbolRemaining(JnoError):
    pass


class NoTemporalTerm(JnoError):
    pass


class MultipleTemporalTerms(JnoError):
    pass


class SingularSystem(JnoError):
    pass


class SingularStepMatrix(JnoError):
    pass


class SingularMass(JnoError):
    pass


class TimeDependentMass(JnoError):
    pass


class NewtonDivergence(JnoError):
    def __init__(self, iterations, residual_norm):
        super().__init__(
            f"Newton did not converge in {iterations} iterations "
            f"(|R| = {residual_norm:.3e})"
        )
        self.iterations = iterations
        self.residual_norm = residual_norm


# -- nn ---------------------------------------------------------------------

class BadDimension(JnoError):
    pass


class UnknownPath(JnoError):
    pass


class NotAMatrix(JnoError):
    pass


class InvalidSeed(JnoError):
    pass


class StateShapeMismatch(JnoError):
    pass


# -- core -------------------------------------------------------------------

class NonScalarConstraint(JnoError):
    pass


class MissingOptimizer(JnoError):
    pass


class BatchTooLarge(JnoError):
    pass


class NaNLoss(JnoError):
    def __init__(self, step, history=None):
        super().__init__(f"non-finite loss at outer step {step}")
        self.step = step
        self.history = history
