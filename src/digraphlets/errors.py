"""Exception types shared across the package, and ``naming``, which puts a path on them."""

from contextlib import contextmanager


class InputError(ValueError):
    """User-supplied data is unusable: unreadable file, malformed line, bad parameter."""


class UnprunableError(RuntimeError):
    """No threshold keeps the weighted network connected with sufficient degree."""


class InvariantError(RuntimeError):
    """Internal consistency violation, e.g. counter disagreement or overflow guard."""


@contextmanager
def naming(path):
    """Put ``path: `` in front of an input, invariant or pruning error."""
    try:
        yield
    except (InputError, InvariantError, UnprunableError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
