"""Value objects that cross an aglet hop by reference."""

__all__ = ["WireValue"]


class WireValue:
    """Mixin for a ``frozen=True`` dataclass that is immutable all the way
    down (``str``/``int``/``float``/``bool``/``None``/``Enum`` fields or
    tuples of those): a hop copies only what the other side could change, so
    ``copy.deepcopy(value) is value``.  ``_wire_bytes`` holds its simulated
    wire size once computed — in a slot, not a field, so ``vars(value)``
    (what equality, ``repr`` and the size walk itself see) stays the fields.
    """

    __slots__ = ("_wire_bytes",)

    def __deepcopy__(self, memo: dict) -> "WireValue":
        return self

    def __getstate__(self) -> dict:
        # Fields only: a frozen instance cannot be handed slot state back, so
        # ``copy.copy`` and ``pickle`` of a sized value would otherwise fail.
        return vars(self)
