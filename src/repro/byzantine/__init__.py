"""Byzantine behaviour injection: protocol-level spec transforms."""

from .behaviors import SPEC_TRANSFORMS, BehaviorRef, apply_behavior, register_behavior

__all__ = [
    "BehaviorRef",
    "SPEC_TRANSFORMS",
    "apply_behavior",
    "register_behavior",
]
