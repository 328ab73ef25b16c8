"""Wall-clock sidecar: the one sanctioned clock boundary in ``repro.obs``.

The trace layer's determinism contract forbids wall-clock reads — events
are stamped with the logical budget clock only, so traces are pure
functions of the seed (DET002's ``verified_clean`` in
:data:`repro.analysis.config.RULE_OPTIONS` registers the package).  This
module is the deliberate, narrow exception: it records wall timestamps
*beside* the trace, never inside it, and is therefore on DET002's
``allow`` list in the same table.

:class:`WallClockTracer` subclasses ``RecordingTracer`` and stamps
``time.perf_counter()`` into a side table keyed by event ``seq`` as each
event is emitted.  The event stream itself is untouched, so the written
trace stays byte-identical to a plain recording of the same seed, and
every determinism gate (traced ≡ untraced, workers=N ≡ workers=1)
holds with the sidecar active.  The profiler folds the sidecar into an
opt-in ``wall_s`` column (``repro obs profile --wall``); without it no
repro.obs output contains timing information.

Sidecar format (``TRACE.jsonl.wall``)::

    {"kind": "wall_sidecar", "version": 1, "wall": {"0": 0.0, "1": 0.0013, ...}}
"""

from __future__ import annotations

import json
import time
from typing import Any, Mapping

from repro.obs.events import TraceFormatError
from repro.obs.tracer import RecordingTracer

#: Sidecar format version.
WALL_VERSION = 1

_SIDECAR_KIND = "wall_sidecar"

#: Suffix appended to the trace path to name its sidecar.
SIDECAR_SUFFIX = ".wall"


def sidecar_path(trace_path: str) -> str:
    """The conventional sidecar filename for one trace file."""
    return trace_path + SIDECAR_SUFFIX


class WallClockTracer(RecordingTracer):
    """A recording tracer that also keeps wall timestamps per event.

    The timestamps live in :attr:`wall` (seq → seconds since the tracer
    was created) and never enter the event stream: ``self.events`` is
    bit-identical to what a plain :class:`RecordingTracer` records for
    the same run.
    """

    def __init__(self) -> None:
        super().__init__()
        self.wall: dict[int, float] = {}
        self._wall_start = time.perf_counter()

    def emit(self, kind: str, /, **data: Any) -> None:
        self.wall[self._seq] = time.perf_counter() - self._wall_start
        super().emit(kind, **data)


def write_wall_sidecar(wall: Mapping[int, float], path: str) -> None:
    """Persist a seq → seconds table next to its trace."""
    record = {
        "kind": _SIDECAR_KIND,
        "version": WALL_VERSION,
        "wall": {str(seq): wall[seq] for seq in sorted(wall)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")


def read_wall_sidecar(path: str) -> dict[int, float]:
    """Load a sidecar written by :func:`write_wall_sidecar`."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if (
        not isinstance(record, dict)
        or record.get("kind") != _SIDECAR_KIND
        or not isinstance(record.get("wall"), dict)
    ):
        raise TraceFormatError(f"not a wall sidecar file: {path}")
    if record.get("version") != WALL_VERSION:
        raise TraceFormatError(
            f"unsupported wall sidecar version {record.get('version')!r}"
        )
    try:
        return {
            int(seq): float(value) for seq, value in record["wall"].items()
        }
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed wall sidecar {path}: {exc}")
