"""Exception types shared across the engine."""


class EqihError(Exception):
    """Base class for all engine errors."""


class InputError(EqihError):
    """Malformed user input (model files, perversity strings, CLI args)."""


class AmbientMismatch(EqihError):
    def __init__(self, a, b):
        super().__init__("ambient dimensions differ: %s vs %s" % (a, b))


class NotASubspace(EqihError):
    pass


class StrataMismatch(EqihError):
    pass


class UnknownStratum(EqihError):
    pass


class NotAConeModel(EqihError):
    pass


class IdentificationFails(EqihError):
    """A model-level identification required by a theorem's hypotheses does
    not hold for this input."""


class InvalidIso(EqihError):
    pass


class PropertyViolation(EqihError):
    """A structural theorem failed to hold; signals a bug, not bad input."""


class NotAComplex(PropertyViolation):
    """d.d != 0, or a map does not commute with d."""


class NotExact(PropertyViolation):
    pass


class DecompositionMismatch(PropertyViolation):
    pass


class TheoremViolation(PropertyViolation):
    pass


class InternalInvariantViolation(PropertyViolation):
    pass


class WitnessNotFound(InternalInvariantViolation):
    pass
