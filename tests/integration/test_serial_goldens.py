"""Serial runs must reproduce recorded goldens byte for byte.

Each cell below was run once and its artifacts committed under
``data/serial_goldens/<cell>/``: the full ``RunResult`` (dict order
included; the manifest is left out because it records the Python and
numpy versions and the kernel mode) and the four telemetry exports
(Prometheus text, CSV time series, JSONL event log, Chrome trace).  The
event log and trace are stored gzipped and compared after
decompression.  Any refactor of the scheduler, network, telemetry or
accounting layers must leave all 35 artifacts unchanged.  The cells
cover all six algorithms at seed 11 and a chaos cell (crash + loss
burst + reliable channel + recovery) at seed 31.

To re-record after an *intended* behaviour change::

    PYTHONPATH=src python tests/integration/test_serial_goldens.py
"""

import gzip
import json
import tempfile
from pathlib import Path

import pytest

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.system import DistributedJoinSystem
from repro.net.faults import FaultEvent, FaultKind, FaultPlan
from repro.net.reliable import ReliabilitySettings
from repro.recovery.settings import RecoverySettings
from repro.telemetry import EXPORT_FILENAMES, export_all
from repro.telemetry.settings import TelemetrySettings

GOLDENS = Path(__file__).parent / "data" / "serial_goldens"
RESULT_FILENAME = "result.json"
EXPORTS = ("prometheus", "csv", "jsonl", "chrome_trace")
GZIPPED = {EXPORT_FILENAMES["jsonl"], EXPORT_FILENAMES["chrome_trace"]}


def base_config(algorithm):
    return SystemConfig(
        num_nodes=4,
        window_size=64,
        policy=PolicyConfig(algorithm=algorithm, kappa=4.0),
        workload=WorkloadConfig(total_tuples=400, domain=256, arrival_rate=150.0),
        seed=11,
        telemetry=TelemetrySettings(enabled=True),
    )


def chaos_config():
    return SystemConfig(
        num_nodes=4,
        window_size=96,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=4.0),
        workload=WorkloadConfig(total_tuples=600, domain=512, arrival_rate=120.0),
        seed=31,
        telemetry=TelemetrySettings(enabled=True),
        reliability=ReliabilitySettings(enabled=True),
        recovery=RecoverySettings(enabled=True),
        faults=FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.NODE_CRASH,
                    start_s=2.0,
                    duration_s=3.0,
                    nodes=(2,),
                    downtime_s=3.0,
                ),
                FaultEvent(
                    kind=FaultKind.LOSS_BURST,
                    start_s=3.0,
                    duration_s=4.0,
                    loss_probability=0.6,
                ),
            )
        ),
    )


CELLS = {
    **{f"{a.name.lower()}_seed11": (lambda a=a: base_config(a)) for a in Algorithm},
    "chaos_dftt_seed31": chaos_config,
}


def result_blob(result) -> str:
    """The full RunResult, dict order included (no sort_keys)."""
    fields = dict(result.__dict__)
    fields.pop("manifest")
    return json.dumps(fields, default=str)


def read_golden(cell: str, name: str) -> str:
    if name in GZIPPED:
        return gzip.decompress((GOLDENS / cell / f"{name}.gz").read_bytes()).decode()
    return (GOLDENS / cell / name).read_text()


def artifacts(config, directory: Path):
    """Run ``config`` serially; return ``{filename: text}`` for every golden."""
    system = DistributedJoinSystem(config)
    result = system.run()
    paths = export_all(system.telemetry, directory)
    files = {RESULT_FILENAME: result_blob(result)}
    for kind in EXPORTS:
        files[EXPORT_FILENAMES[kind]] = paths[kind].read_text()
    return files


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_serial_run_matches_golden(cell, tmp_path):
    produced = artifacts(CELLS[cell](), tmp_path)
    for name, text in produced.items():
        assert text == read_golden(cell, name), f"{cell}/{name} drifted"


def record() -> None:
    """Overwrite every golden with the current code's output."""
    for cell, make in CELLS.items():
        with tempfile.TemporaryDirectory() as scratch:
            produced = artifacts(make(), Path(scratch))
        target = GOLDENS / cell
        target.mkdir(parents=True, exist_ok=True)
        for name, text in produced.items():
            if name in GZIPPED:
                data = gzip.compress(text.encode(), compresslevel=9, mtime=0)
                (target / f"{name}.gz").write_bytes(data)
            else:
                (target / name).write_text(text)


if __name__ == "__main__":
    record()
