"""Run provenance: who/where/what produced a metrics or benchmark file.

Every artifact this repository writes for later comparison — perfbench
reports, the harness's ``{stem}_metrics.json``, flight-recorder dumps —
carries the same stamp so ``python -m repro.obs diff`` can tell
whether two files are comparable at all (same host? same library
versions? same commit?) before arguing about their numbers.
"""

from __future__ import annotations

import os
import platform
import socket
import subprocess
import time

__all__ = ["provenance", "git_sha"]

_GIT_SHA = "unresolved"  # module-level cache; ``None`` = genuinely unknown


def git_sha():
    """The current commit's SHA, or ``None`` when it cannot be resolved.

    Resolution order: the ``GITHUB_SHA`` environment variable (set by CI
    checkouts, works without a ``.git`` directory), then ``git rev-parse
    HEAD`` run from this file's directory. The answer is cached for the
    process lifetime — a commit cannot change under a running benchmark.
    """
    global _GIT_SHA
    if _GIT_SHA != "unresolved":
        return _GIT_SHA
    sha = os.environ.get("GITHUB_SHA") or None
    if sha is None:
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True, text=True, timeout=5,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    _GIT_SHA = sha
    return sha


def provenance():
    """A JSON-serializable stamp of the producing environment.

    Includes the git SHA, hostname, CPU count, python/numpy versions,
    the platform, the pid, and a wall-clock timestamp. Cheap enough to
    call per artifact; the git lookup is cached.
    """
    import numpy as np

    return {
        "git_sha": git_sha(),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "pid": os.getpid(),
        "unix_time": time.time(),
    }
