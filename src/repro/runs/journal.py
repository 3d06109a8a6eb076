"""The run journal: manifest + event log + atomic per-cell checkpoints.

A journalled experiment owns a *run directory*::

    <run_dir>/
      manifest.json        # config fingerprint, seeds, scale, model line-up
      events.jsonl         # append-only log: run/cell lifecycle events
      cells/
        A-r000.npz         # arrays: labels, pipe lengths, per-model scores
        A-r000.json        # metadata + metrics + chain health + npz checksum (completion marker)
        B-r002.failed.json # last recorded failure for a cell (not a checkpoint)

Checkpoints are written *atomically* (temp file + ``os.replace`` in the
same directory) and in a fixed order — arrays first, then the metadata
record carrying the npz's SHA-256 — so the ``.json`` file is the
completion marker: if it exists and its checksum matches, the cell is
done; anything else (missing json, missing npz, truncated npz, checksum
mismatch, unparsable json) is *not done* and the cell reruns. A corrupted
checkpoint therefore costs a recompute, never a wrong result.

Floats round-trip exactly through ``json`` (``repr`` grammar) and arrays
through ``npz``, which is what makes ``resume=`` bit-identical to an
uninterrupted run.

The event log is observability, not state: recovery never reads it. Each
line is one JSON object appended with a single ``write`` call, so
concurrent pool workers interleave whole lines.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from .spec import CellSpec

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (eval imports runs)
    from ..eval.experiment import RegionRun
    from ..monitor.health import HealthReport

MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"
CELLS_DIR = "cells"

#: Bump when the checkpoint layout changes incompatibly.
JOURNAL_FORMAT = 1


class JournalError(RuntimeError):
    """Structural problem with a run directory (missing/contradictory state)."""


class CheckpointCorruptError(JournalError):
    """A cell checkpoint exists but cannot be trusted (recompute the cell)."""


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a same-directory temp file + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_write_json(path: Path, payload: dict) -> None:
    _atomic_write_bytes(path, (json.dumps(payload, sort_keys=True) + "\n").encode())


def config_fingerprint(config: dict) -> str:
    """SHA-256 over the canonical JSON form of a run configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunJournal:
    """One experiment run's durable state, rooted at ``run_dir``."""

    def __init__(self, run_dir: str | Path, manifest: dict):
        self.run_dir = Path(run_dir)
        self.manifest = manifest

    # ---------------------------------------------------------------- setup
    @classmethod
    def create(cls, run_dir: str | Path, config: dict) -> "RunJournal":
        """Start a fresh journal; refuses to trample a different run.

        Re-creating over an existing journal is allowed only when the
        config fingerprint matches (an idempotent restart); otherwise use a
        new directory or ``resume=`` the old one.
        """
        run_dir = Path(run_dir)
        manifest_path = run_dir / MANIFEST_NAME
        fingerprint = config_fingerprint(config)
        if manifest_path.exists():
            existing = cls.open(run_dir)
            if existing.fingerprint != fingerprint:
                raise JournalError(
                    f"{run_dir} already holds a run with a different configuration "
                    f"(fingerprint {existing.fingerprint[:12]}… != {fingerprint[:12]}…); "
                    "pass resume=<run_dir> to continue it or choose a new directory"
                )
            return existing
        manifest = {
            "format": JOURNAL_FORMAT,
            "created_unix": time.time(),
            "fingerprint": fingerprint,
            "config": config,
        }
        (run_dir / CELLS_DIR).mkdir(parents=True, exist_ok=True)
        _atomic_write_json(manifest_path, manifest)
        return cls(run_dir, manifest)

    @classmethod
    def open(cls, run_dir: str | Path) -> "RunJournal":
        """Open an existing journal, validating its manifest."""
        run_dir = Path(run_dir)
        manifest_path = run_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise JournalError(f"{run_dir} is not a run directory (no {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise JournalError(f"unreadable manifest in {run_dir}: {exc}") from exc
        for key in ("format", "fingerprint", "config"):
            if key not in manifest:
                raise JournalError(f"manifest in {run_dir} lacks {key!r}")
        if manifest["format"] > JOURNAL_FORMAT:
            raise JournalError(
                f"run directory {run_dir} uses journal format {manifest['format']}, "
                f"newer than this build's {JOURNAL_FORMAT}"
            )
        return cls(run_dir, manifest)

    @property
    def fingerprint(self) -> str:
        return self.manifest["fingerprint"]

    def check_config(self, config: dict) -> None:
        """Raise unless ``config`` matches the run this journal records."""
        fingerprint = config_fingerprint(config)
        if fingerprint != self.fingerprint:
            raise JournalError(
                "resume configuration does not match the journalled run "
                f"(fingerprint {fingerprint[:12]}… != {self.fingerprint[:12]}…); "
                "a resumed grid must use the same regions/repeats/seeds/models"
            )

    # ---------------------------------------------------------------- events
    def log_event(self, kind: str, **fields: Any) -> None:
        """Append one event line (observability only; recovery ignores it)."""
        record = {"t": time.time(), "event": kind, **fields}
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with open(self.run_dir / EVENTS_NAME, "a", encoding="utf-8") as handle:
            handle.write(line)

    def events(self) -> list[dict]:
        """Parsed event log (skipping any torn trailing line)."""
        path = self.run_dir / EVENTS_NAME
        if not path.exists():
            return []
        records = []
        for line in path.read_text().splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return records

    # ---------------------------------------------------------------- cells
    def _cell_paths(self, cell_id: str) -> tuple[Path, Path, Path]:
        base = self.run_dir / CELLS_DIR
        return (
            base / f"{cell_id}.npz",
            base / f"{cell_id}.json",
            base / f"{cell_id}.failed.json",
        )

    def save_cell(
        self,
        spec: CellSpec,
        run: "RegionRun",
        attempts: int = 1,
    ) -> None:
        """Atomically checkpoint one completed cell.

        Arrays (labels, pipe lengths, one score vector per model) go into
        the ``.npz``; metrics, each model's convergence report (when it
        has one) and the npz checksum into the ``.json``, which lands last
        and marks completion.
        """
        npz_path, json_path, failed_path = self._cell_paths(spec.cell_id)
        arrays: dict[str, np.ndarray] = {
            "labels": run.labels,
            "pipe_lengths": run.pipe_lengths,
        }
        for name, ev in run.evaluations.items():
            arrays[f"scores__{name}"] = ev.scores
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        _atomic_write_bytes(npz_path, buffer.getvalue())
        record = {
            "format": JOURNAL_FORMAT,
            "cell_id": spec.cell_id,
            "identity": spec.identity(),
            "region": run.region,
            "seed": run.seed,
            "attempts": attempts,
            "npz_sha256": _sha256_file(npz_path),
            "models": [
                {
                    "name": ev.model_name,
                    "auc": ev.auc,
                    "auc_budget_permyriad": ev.auc_budget_permyriad,
                    "budget": ev.budget,
                    "health": ev.health.to_json() if ev.health is not None else None,
                }
                for ev in run.evaluations.values()
            ],
        }
        _atomic_write_json(json_path, record)
        failed_path.unlink(missing_ok=True)

    def record_failure(self, spec: CellSpec, error: str, error_type: str, attempts: int) -> None:
        """Record a cell's (latest) failure; the cell stays not-done."""
        _, _, failed_path = self._cell_paths(spec.cell_id)
        _atomic_write_json(
            failed_path,
            {
                "cell_id": spec.cell_id,
                "identity": spec.identity(),
                "error_type": error_type,
                "error": error,
                "attempts": attempts,
                "t": time.time(),
            },
        )

    def cell_done(self, cell_id: str) -> bool:
        """Completion check by marker presence only (cheap; no validation)."""
        npz_path, json_path, _ = self._cell_paths(cell_id)
        return json_path.exists() and npz_path.exists()

    def completed_cells(self) -> set[str]:
        """Cell ids with both checkpoint files present (unvalidated)."""
        base = self.run_dir / CELLS_DIR
        return {p.stem for p in base.glob("*.json") if not p.name.endswith(".failed.json")
                and (base / f"{p.stem}.npz").exists()}

    def cell_health(self) -> dict[str, dict[str, "HealthReport"]]:
        """Per-cell, per-model convergence reports from the completion markers.

        Shape ``{cell_id: {model_name: report}}``; models that fit no
        chains (and cells with no such model) are absent. Reads only the
        lightweight ``.json`` records (no array loads, no checksum
        validation); unreadable markers are skipped, matching
        :meth:`failed_cells`.
        """
        from ..monitor.health import HealthReport

        out: dict[str, dict[str, HealthReport]] = {}
        base = self.run_dir / CELLS_DIR
        for path in sorted(base.glob("*.json")):
            if path.name.endswith(".failed.json"):
                continue
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            cell_id = str(record.get("cell_id", path.stem))
            for entry in record.get("models", []):
                if entry.get("health") is not None:
                    out.setdefault(cell_id, {})[entry["name"]] = HealthReport.from_json(
                        entry["health"]
                    )
        return out

    def failed_cells(self) -> dict[str, dict]:
        """Latest recorded failure per cell id (cells may later succeed)."""
        out = {}
        for path in (self.run_dir / CELLS_DIR).glob("*.failed.json"):
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            out[record.get("cell_id", path.name.removesuffix(".failed.json"))] = record
        return out

    def load_cell(self, spec: CellSpec) -> "RegionRun":
        """Rebuild a cell's :class:`RegionRun` bit-identically from disk.

        Raises :class:`CheckpointCorruptError` on any inconsistency —
        missing files, checksum mismatch, unparsable json, missing arrays —
        so callers can fall back to recomputing the cell.
        """
        from ..eval.experiment import ModelEvaluation, RegionRun
        from ..monitor.health import HealthReport

        npz_path, json_path, _ = self._cell_paths(spec.cell_id)
        if not json_path.exists() or not npz_path.exists():
            raise CheckpointCorruptError(f"cell {spec.cell_id}: checkpoint incomplete")
        try:
            record = json.loads(json_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointCorruptError(
                f"cell {spec.cell_id}: unreadable metadata ({exc})"
            ) from exc
        if _sha256_file(npz_path) != record.get("npz_sha256"):
            raise CheckpointCorruptError(
                f"cell {spec.cell_id}: array checkpoint fails its checksum"
            )
        try:
            with np.load(npz_path) as arrays:
                labels = arrays["labels"]
                pipe_lengths = arrays["pipe_lengths"]
                scores = {
                    entry["name"]: arrays[f"scores__{entry['name']}"]
                    for entry in record["models"]
                }
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointCorruptError(
                f"cell {spec.cell_id}: array checkpoint unreadable ({exc})"
            ) from exc
        run = RegionRun(
            region=record["region"],
            seed=record["seed"],
            labels=labels,
            pipe_lengths=pipe_lengths,
        )
        for entry in record["models"]:
            run.evaluations[entry["name"]] = ModelEvaluation(
                model_name=entry["name"],
                scores=scores[entry["name"]],
                auc=entry["auc"],
                auc_budget_permyriad=entry["auc_budget_permyriad"],
                budget=entry["budget"],
                health=(
                    HealthReport.from_json(entry["health"])
                    if entry.get("health") is not None
                    else None
                ),
            )
        return run

    def load_completed(self, specs: Iterable[CellSpec]) -> dict[str, "RegionRun"]:
        """Validated checkpoints for ``specs``; corrupt ones are dropped
        (logged as ``cell_corrupt`` events) so the caller recomputes them."""
        loaded: dict[str, RegionRun] = {}
        for spec in specs:
            if not self.cell_done(spec.cell_id):
                continue
            try:
                loaded[spec.cell_id] = self.load_cell(spec)
            except CheckpointCorruptError as exc:
                self.log_event("cell_corrupt", cell=spec.cell_id, error=str(exc))
        return loaded
