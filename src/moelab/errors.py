"""Exception types shared across the package."""


class DataError(Exception):
    """Malformed external input: corpus, trace file, checkpoint, or config."""
