"""Exception hierarchy for the catalog substrate."""


class CatalogError(Exception):
    """Base class for all catalog-layer errors."""


class UnknownIdError(CatalogError, KeyError):
    """Raised when a type, entity or relation id is not present in the catalog."""

    def __init__(self, kind: str, identifier: str):
        self.kind = kind
        self.identifier = identifier
        super().__init__(f"unknown {kind} id: {identifier!r}")


class DuplicateIdError(CatalogError, ValueError):
    """Raised when an id is registered twice."""

    def __init__(self, kind: str, identifier: str):
        self.kind = kind
        self.identifier = identifier
        super().__init__(f"duplicate {kind} id: {identifier!r}")


class CycleError(CatalogError, ValueError):
    """Raised when a subtype edge would create a cycle in the type DAG."""

    def __init__(self, child: str, parent: str):
        self.child = child
        self.parent = parent
        super().__init__(
            f"adding subtype edge {child!r} <= {parent!r} would create a cycle"
        )
