"""Exception types shared across depth2-kit, and its value base ``Record``.

The command-line front end maps these onto exit codes: size and budget
violations exit with 3, everything else that is the caller's fault
exits with 2.
"""


class Record:
    """An immutable value with named fields, as ``@dataclass(frozen=True)``
    would build it but without importing ``dataclasses`` and ``inspect``.  Fields
    are the annotations, after the bases' fields; a class-level value is a
    default; ``__init__`` runs ``__post_init__`` if there is one.  The instance
    dict holds exactly the fields, in order, for equality and the hash."""

    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls):
        fields = (*cls.__match_args__, *vars(cls).get("__annotations__", ()))
        defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
        params = "".join(f", {f}=_d[{f!r}]" if f in defaults else f", {f}" for f in fields)
        body = "".join(f"\n d[{f!r}] = {f}" for f in fields)
        post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        space = {"_d": defaults}
        exec(f"def __init__(self{params}):\n d = self.__dict__{body}{post}", space)
        cls.__init__, cls.__match_args__ = space["__init__"], fields

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Depth2Error(Exception):
    """Base class for all errors raised by this package."""


class SizeError(Depth2Error):
    """A hard size cap was exceeded (atoms, worlds, search bounds)."""


class DomainError(Depth2Error):
    """An element, index, arity, or parameter is outside its domain."""


class PreconditionError(Depth2Error):
    """A structural precondition of the operation does not hold."""


class NoClosureError(Depth2Error):
    """The candidate closed-element set admits no closure operator."""

    def __init__(self, element: int, message: str | None = None):
        self.element = element
        super().__init__(
            message or f"no least candidate above element {element}"
        )


class TrivialityError(Depth2Error):
    """The construction would yield the one-element algebra."""


class BudgetError(Depth2Error):
    """An exhaustive check would exceed the evaluation budget."""


class BindingError(Depth2Error):
    """A formula variable has no assigned value."""


class FormulaSyntaxError(Depth2Error):
    """Lexical or syntax error in formula text, with 1-based column."""

    def __init__(self, message: str, position: int, expected=()):
        self.position = position
        self.expected = frozenset(expected)
        super().__init__(f"{message} at column {position}")
