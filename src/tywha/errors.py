"""Exception types shared across the package, and the fail-fast check of a
group order against a size bound."""


class SizeError(ValueError):
    """An enumeration or construction exceeds its configured size bound."""


def check_order(order: int, bound: int, what: str) -> None:
    """Fail fast with SizeError when a group order exceeds ``what``'s bound."""
    if order > bound:
        raise SizeError(f"|G| = {order} exceeds {what} bound {bound}")


class InvariantError(ValueError):
    """Input data violates a structural invariant (not a subgroup, degenerate
    bicharacter, non-additive character, malformed classification data)."""


class StructuralError(RuntimeError):
    """An internal consistency check failed; this signals a construction bug,
    not bad user input."""
