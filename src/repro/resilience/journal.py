"""The durable append-only JSONL sink.

:class:`DurableLog` backs the audit journal's optional file tail
(:meth:`~repro.core.audit.AuditJournal.attach_file_sink`), so the audit
trail survives a ``kill -9`` up to the last checkpoint.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union


class JournalError(Exception):
    """A corrupt or unreadable journal file."""


class DurableLog:
    """Append-only JSONL sink with fsync-on-checkpoint durability.

    ``durable=True`` makes :meth:`checkpoint` flush *and* fsync, so a
    process kill loses at most the records after the last checkpoint —
    exactly the replayable window. ``durable=False`` keeps the same API
    with plain flushes (fast tests, throwaway stores).
    """

    def __init__(self, path: Union[str, Path], durable: bool = True):
        self.path = Path(path)
        self.durable = durable
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[io.TextIOWrapper] = open(
            self.path, "a", encoding="utf-8"
        )
        self._appended = 0
        self._checkpoints = 0

    def append(self, record: Dict) -> None:
        if self._fh is None:
            raise JournalError(f"journal {self.path} is closed")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._appended += 1

    def checkpoint(self) -> None:
        """Make everything appended so far durable."""
        if self._fh is None:
            raise JournalError(f"journal {self.path} is closed")
        self._fh.flush()
        if self.durable:
            os.fsync(self._fh.fileno())
        self._checkpoints += 1

    @property
    def checkpoints(self) -> int:
        return self._checkpoints

    @property
    def appended(self) -> int:
        return self._appended

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "DurableLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @staticmethod
    def read(path: Union[str, Path]) -> List[Dict]:
        """All well-formed records of a journal file, in order.

        A torn final line (the process died mid-write) is tolerated and
        dropped — it was by definition not yet durable. A torn line in
        the *middle* marks real corruption and raises.
        """
        out: List[Dict] = []
        torn_at: Optional[int] = None
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    if torn_at is None:
                        torn_at = number
                    else:
                        raise JournalError(
                            f"{path}: corrupt record at line {number + 1}"
                        ) from None
                else:
                    if torn_at is not None:
                        raise JournalError(
                            f"{path}: corrupt record at line {torn_at + 1} "
                            "followed by further records"
                        )
        return out
