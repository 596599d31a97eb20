"""The package's one memo: results kept in the ``_cache`` dict of the first argument.

The owner is an ``AlgebraData`` or a ``Representation``, so a memo lives and
dies with the algebra or module it was computed from.
"""

from __future__ import annotations

import functools
import inspect


def memoized(fn):
    """Cache ``fn(owner, *args)`` in ``owner._cache`` under ``(qualified name, *args)``.

    The arguments after the owner must be hashable; keyword arguments are not
    accepted, so each call has exactly one key.
    """
    name = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(owner, *args):
        key = (name, *args)
        if key not in owner._cache:
            owner._cache[key] = fn(owner, *args)
        return owner._cache[key]

    return wrapper


def remember(fn, owner, *args, result) -> None:
    """Enter ``result`` as the memo of ``fn(owner, *args)``; ``fn`` may be wrapped."""
    owner._cache[(inspect.unwrap(fn).__qualname__, *args)] = result
