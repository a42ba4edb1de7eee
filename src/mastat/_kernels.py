"""The kernel path the benchmark worker reports; each kernel lives in the
module that uses it (the snap-merge in dist, the sweep in dominance)."""


def active_path():
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"
