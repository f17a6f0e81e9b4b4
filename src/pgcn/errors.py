"""Exception taxonomy shared by every pgcn module.

Each error class carries a short machine-readable ``code`` so batch
callers (and the CLI) can report failures on a single line without
parsing prose.  :func:`read_text` reads every input file, so a file that
cannot be read or decoded fails as one of these errors too.
"""


class PgcnError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ShapeError(PgcnError, ValueError):
    """Operands have incompatible dimensions."""

    code = "shape"


class ParameterError(PgcnError, ValueError):
    """An argument is outside its documented domain."""

    code = "parameter"


class DataError(PgcnError, ValueError):
    """Input data violates a structural requirement (bad value, bad join, ...)."""

    code = "data"


class ConfigError(PgcnError, ValueError):
    """An experiment or file-based configuration is invalid."""

    code = "config"


class ConsistencyError(PgcnError, ValueError):
    """Two objects that must agree (say, gradients and the parameters they update) do not."""

    code = "consistency"


class DegenerateInputError(PgcnError, ValueError):
    """A statistic is undefined for this input (e.g. zero-variance differences)."""

    code = "degenerate-input"


def read_text(path, encoding, error):
    """The text of ``path`` with its line ends translated to ``"\\n"``, as ``open`` reads it.

    A file that cannot be opened raises ``error``; a byte outside
    ``encoding`` raises ``error`` naming its 1-based file line.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = raw.decode(encoding)
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start] + b".").splitlines())  # bytes split only where open splits lines
        raise error(f"{path}:{line}: byte {raw[exc.start]:#04x} is not {encoding}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
