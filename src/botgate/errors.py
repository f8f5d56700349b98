"""Shared exception types, the file write that leaves no torn file, and the
text read that names the line of a byte that is not UTF-8."""
import os
from pathlib import Path


class BotgateError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(BotgateError):
    """Invalid configuration value (bad CIDR, non-positive duration, ...)."""


class TraceParseError(BotgateError):
    """Malformed trace file; message names the offending line."""


class DataError(BotgateError):
    """Invalid data passed to an operation (empty matrix, single-class fit, ...)."""


class DegenerateSignalError(BotgateError):
    """Constant encoded sequence; autocorrelation denominator is zero."""


class ModelFormatError(BotgateError):
    """Model file is corrupt, truncated or has an unknown version."""


class PolicyError(BotgateError):
    """Policy command parse error or store violation."""


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to a sibling temporary file, then move it over
    ``path``, so that a write that fails leaves the old file as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``; DataError naming the file and
    the line of the first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # the lines before the byte end at \n, \r\n or \r, as in text mode and csv
        lineno = len(data[:exc.start + 1].splitlines())
        raise DataError(f"{path} line {lineno}: {exc}") from None
