"""JSON serialization of telemetry snapshots: the full
:meth:`Telemetry.snapshot` dict, spans and component stats."""

from __future__ import annotations

import json
from typing import Optional

from .sink import Telemetry


def to_json(telemetry: Telemetry, indent: Optional[int] = 2) -> str:
    return json.dumps(telemetry.snapshot(), indent=indent, sort_keys=True)


def write_json(telemetry: Telemetry, path: str) -> str:
    with open(path, "w") as fh:
        fh.write(to_json(telemetry) + "\n")
    return path
