"""numpy, imported on the first attribute a computation reads from it.

Every module of the package writes ``from ._np import np`` and uses ``np.``
as usual. The handle imports numpy when an attribute is first read and
keeps that attribute on itself, so later reads are plain attribute lookups.
The closed-form curves, the hull and the CLI grid read none, so the
commands that need only them run without numpy loaded.
"""


class _NumpyHandle:
    """Stands for the numpy module; see the module docstring."""

    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _NumpyHandle()
