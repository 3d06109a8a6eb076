"""Experiment runner: the paper's train/test protocol over models × regions.

Protocol (§18.4): critical water mains only; train on the 1998–2008
failure records, test on 2009; rank pipes by predicted risk; report the
full-range AUC and the 1%-budget AUC (in ‱), plus detection curves; and
assess significance with one-sided paired t-tests over repeated
evaluations (each repeat regenerates the region with a fresh seed and
refits every model on it, giving paired per-repeat AUC samples).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .. import telemetry
from ..core.base import FailureModel
from ..core.dpmhbp import DPMHBPModel
from ..core.hbp import HBPBestModel
from ..core.ranking.model import AUCRankingModel, SVMRankingModel
from ..core.survival_models import CoxPHModel, WeibullModel
from ..features.builder import FeatureConfig, ModelData
from ..monitor.health import HealthReport
from ..network.pipe import PipeClass
from ..parallel import cached_model_data, resolve_executor, safe_parallel_map
from ..runs.engine import CellExecutionError, CellOutcome, RunPolicy, execute_cell
from ..runs.journal import RunJournal
from ..runs.spec import CellSpec
from .metrics import DetectionCurve, auc_at_budget, detection_curve, empirical_auc, permyriad
from .significance import TTestResult, paired_t_test

#: The model line-up of Table 18.3 (plus the AUC-optimised ranker).
PAPER_MODELS: tuple[str, ...] = ("DPMHBP", "HBP", "Cox", "SVM", "Weibull")

ModelFactory = Callable[[int], list[FailureModel]]


def default_models(seed: int = 0, fast: bool = False) -> list[FailureModel]:
    """The compared line-up; ``fast`` trims MCMC sweeps for quick runs."""
    sweeps = (50, 20) if fast else (80, 30)
    hbp_sweeps = (120, 40) if fast else (250, 100)
    return [
        DPMHBPModel(seed=seed, n_sweeps=sweeps[0], burn_in=sweeps[1]),
        HBPBestModel(seed=seed, c_group=15.0, n_sweeps=hbp_sweeps[0], burn_in=hbp_sweeps[1]),
        CoxPHModel(),
        SVMRankingModel(seed=seed),
        WeibullModel(),
        AUCRankingModel(seed=seed, generations=30 if fast else 60),
    ]


@dataclass
class ModelEvaluation:
    """One model's scores and metrics on one region instance."""

    model_name: str
    scores: np.ndarray
    auc: float
    auc_budget_permyriad: float  # AUC over [0, 1%] in ‱
    budget: float = 0.01
    health: HealthReport | None = None  # the fit's chain convergence (MCMC models)

    def curve(self, labels: np.ndarray, lengths: np.ndarray | None = None) -> DetectionCurve:
        """Detection curve against the given labels."""
        return detection_curve(self.scores, labels, lengths=lengths)


@dataclass
class RegionRun:
    """All models evaluated on one generated region instance."""

    region: str
    seed: int
    labels: np.ndarray
    pipe_lengths: np.ndarray
    evaluations: dict[str, ModelEvaluation] = field(default_factory=dict)

    def auc(self, model_name: str) -> float:
        return self.evaluations[model_name].auc

    def auc_budget(self, model_name: str) -> float:
        return self.evaluations[model_name].auc_budget_permyriad

    def ranked(self, metric: str = "auc") -> list[ModelEvaluation]:
        """Evaluations best-first by ``metric`` (``"auc"`` or ``"budget"``).

        Prefer this over iterating ``run.evaluations`` when order matters:
        the dict preserves *fit* order (the line-up's), which is a
        deprecated thing to rely on for presentation.
        """
        if metric not in ("auc", "budget"):
            raise ValueError(f"metric must be 'auc' or 'budget', got {metric!r}")
        key = (
            (lambda ev: ev.auc)
            if metric == "auc"
            else (lambda ev: ev.auc_budget_permyriad)
        )
        return sorted(self.evaluations.values(), key=key, reverse=True)


def prepare_region_data(
    region: str,
    seed: int | None = None,
    scale: float | None = None,
    pipe_class: PipeClass | None = PipeClass.CWM,
    feature_config: FeatureConfig | None = None,
) -> ModelData:
    """Generate a region and build the shared model inputs.

    Memoised per (region, scale, seed, pipe class, feature config) via
    :func:`repro.parallel.cached_model_data`, so repeated evaluations of
    the same generated region pay the generation and feature-assembly
    cost once per process.
    """
    return cached_model_data(
        region,
        scale=scale,
        seed=seed,
        pipe_class=pipe_class,
        feature_config=feature_config,
    )


class NoTestFailuresError(ValueError):
    """A generated region has no test-year failures, so AUC is undefined.

    The known degenerate mode of small-scale generation. A grid cell
    never raises it by chance: its region is drawn again until it has a
    test-year failure (:func:`cell_region_data`), and only a scale too
    small to produce any in :data:`REGION_DRAWS` draws raises it.
    """


#: Region draws a grid cell makes before it gives up on finding a
#: test-year failure. At scale 0.05, 9% of region-A draws have none, so
#: all eight are empty by chance with probability ~0.091⁸ ≈ 5e-9.
REGION_DRAWS = 8

#: Draw ``i ≥ 1`` of a cell with seed ``s`` uses seed ``(s or 0) + 50021 + i``.
_REDRAW_OFFSET = 50021


def cell_region_data(spec: CellSpec) -> tuple[int | None, ModelData]:
    """A cell's region, conditioned on at least one test-year failure.

    The paper's test-year AUC needs a failure to rank. The first draw uses
    the cell's own seed, so every region that has one is unchanged; an
    empty draw moves on along the fixed chain ``(s or 0) + 50022``,
    ``+ 50023``, … Returns the seed of the region used and its data.
    """
    seeds = [spec.seed] + [
        (spec.seed or 0) + _REDRAW_OFFSET + i for i in range(1, REGION_DRAWS)
    ]
    for seed in seeds:
        data = prepare_region_data(
            spec.region, seed=seed, scale=spec.scale, feature_config=spec.feature_config
        )
        if data.pipe_fail_test.sum() > 0:
            return seed, data
    raise NoTestFailuresError(
        f"region {spec.region!r} at scale {spec.scale} has no test-year failures "
        f"on any of {REGION_DRAWS} seeds from {spec.seed}; increase the scale"
    )


def evaluate_models(
    data: ModelData,
    models: Sequence[FailureModel],
    budget: float = 0.01,
    region: str = "?",
    seed: int = 0,
) -> RegionRun:
    """Fit and score every model on one prepared region.

    A model that fitted chains leaves its convergence report on
    ``health_``; it travels on the evaluation into the run journal.
    """
    labels = data.pipe_fail_test
    if labels.sum() == 0:
        raise NoTestFailuresError(
            f"region {region!r} (seed {seed}) has no test-year failures; "
            "increase the scale or use another seed"
        )
    run = RegionRun(
        region=region, seed=seed, labels=labels, pipe_lengths=data.pipe_lengths
    )
    for model in models:
        with telemetry.span("model.fit", model=model.name, region=region):
            scores = model.fit_predict(data)
        telemetry.count("models.fitted")
        run.evaluations[model.name] = ModelEvaluation(
            model_name=model.name,
            scores=scores,
            auc=empirical_auc(scores, labels),
            auc_budget_permyriad=permyriad(auc_at_budget(scores, labels, budget=budget)),
            budget=budget,
            health=getattr(model, "health_", None),
        )
    return run


@dataclass
class ComparisonResult:
    """Repeated-evaluation results over regions × models × seeds.

    ``failures`` holds the outcome envelopes of cells that were skipped or
    exhausted their retries (empty for a clean or ``on_error="raise"``
    run); ``run_dir`` points at the journal when the run was journalled.
    """

    runs: dict[str, list[RegionRun]]  # region -> one RegionRun per repeat
    failures: list["CellOutcome"] = field(default_factory=list)
    run_dir: str | None = None

    @property
    def regions(self) -> list[str]:
        return list(self.runs)

    def model_names(self) -> list[str]:
        first = next(iter(self.runs.values()))[0]
        return list(first.evaluations)

    def auc_samples(self, region: str, model: str) -> np.ndarray:
        """Per-repeat full-range AUCs."""
        return np.asarray([r.auc(model) for r in self.runs[region]])

    def budget_samples(self, region: str, model: str) -> np.ndarray:
        """Per-repeat 1%-budget AUCs (‱)."""
        return np.asarray([r.auc_budget(model) for r in self.runs[region]])

    def mean_auc(self, region: str, model: str) -> float:
        return float(self.auc_samples(region, model).mean())

    def mean_budget_auc(self, region: str, model: str) -> float:
        return float(self.budget_samples(region, model).mean())

    def t_test(
        self, region: str, model_a: str, model_b: str, metric: str = "auc"
    ) -> TTestResult:
        """One-sided paired t-test that ``model_a`` beats ``model_b``."""
        samples = self.auc_samples if metric == "auc" else self.budget_samples
        return paired_t_test(samples(region, model_a), samples(region, model_b))


def _comparison_cell(spec: CellSpec) -> RegionRun:
    """Evaluate one independent (region, repeat) cell.

    Module-level (not a closure) so process pools can pickle it. The cell
    carries everything it needs; each worker regenerates / fetches its
    region from the cache and fits a fresh model line-up, so cells are
    independent and their results depend only on the seeds they carry.
    """
    seed, data = cell_region_data(spec)
    factory = spec.models_factory or (lambda s: default_models(seed=s, fast=spec.fast))
    models = factory(spec.repeat)
    return evaluate_models(data, models, budget=spec.budget, region=spec.region, seed=seed or 0)


def _grid_config(
    regions: Sequence[str],
    n_repeats: int,
    scale: float | None,
    models_factory: ModelFactory | None,
    budget: float,
    base_seed: int,
    fast: bool,
    feature_config: FeatureConfig | None,
) -> dict:
    """The journal's config fingerprint payload: everything that shapes results.

    The model line-up is fingerprinted through the :meth:`FailureModel.get_params`
    contract on a throwaway ``factory(0)`` instantiation (cheap — dataclass
    construction only), so a resumed run with a silently changed line-up is
    rejected instead of producing a half-and-half grid.
    """
    factory = models_factory or (lambda s: default_models(seed=s, fast=fast))
    line_up = [
        {"type": type(m).__name__, "name": m.name, "params": m.get_params()}
        for m in factory(0)
    ]
    return {
        "protocol": "table_18_3/18_4",
        "regions": list(regions),
        "n_repeats": n_repeats,
        "scale": scale,
        "budget": budget,
        "base_seed": base_seed,
        "fast": fast,
        "feature_config": asdict(feature_config) if feature_config is not None else None,
        "models_factory": (
            f"{getattr(models_factory, '__module__', '?')}."
            f"{getattr(models_factory, '__qualname__', repr(models_factory))}"
            if models_factory is not None
            else None
        ),
        "models": line_up,
    }


def run_comparison(
    regions: Sequence[str] = ("A", "B", "C"),
    n_repeats: int = 5,
    scale: float | None = None,
    models_factory: ModelFactory | None = None,
    budget: float = 0.01,
    base_seed: int = 0,
    fast: bool = True,
    feature_config: FeatureConfig | None = None,
    jobs: int | None = None,
    executor: str | None = None,
    run_dir: str | Path | None = None,
    resume: str | Path | None = None,
    on_error: str = "raise",
    retries: int = 2,
) -> ComparisonResult:
    """The full Table 18.3/18.4 experiment — fault-tolerant and resumable.

    Each repeat regenerates every region with seed ``base_seed + repeat``
    (repeat 0 uses the region's canonical seed) and refits all models, so
    per-repeat metrics are paired across models.

    The (region, repeat) cells are independent given their seeds, so they
    fan across the executor selected by ``jobs``/``executor`` (or the
    ``REPRO_JOBS``/``REPRO_EXECUTOR`` environment variables); results are
    bit-identical to a serial run. With a process executor, a custom
    ``models_factory`` must be picklable (a module-level function).

    Fault tolerance (see :mod:`repro.runs`):

    * ``run_dir`` — journal the run there: a config-fingerprinted manifest,
      a JSONL event log, and an atomic checkpoint per completed cell,
      written from inside the worker so a killed process loses only its
      in-flight cells. :func:`repro.monitor.run_report` (``repro status``,
      ``repro doctor``) reads the journal back.
    * ``resume`` — continue a journalled run: finished cells are loaded
      from their checkpoints *bit-identically* (corrupt ones recompute);
      the configuration must fingerprint-match the manifest.
    * ``on_error`` — ``"raise"`` (default, old behaviour) aborts the grid
      on the first failed cell; ``"skip"`` drops failing cells into
      ``result.failures`` and keeps going; ``"retry"`` gives each cell
      ``retries`` extra attempts with the same seed, then skips.
    """
    if n_repeats < 1:
        raise ValueError("need at least one repeat")
    policy = RunPolicy(on_error=on_error, retries=retries)
    specs = [
        CellSpec(
            region=region,
            repeat=repeat,
            seed=None if repeat == 0 else base_seed + 1000 + repeat,
            scale=scale,
            budget=budget,
            fast=fast,
            feature_config=feature_config,
            models_factory=models_factory,
        )
        for repeat in range(n_repeats)
        for region in regions
    ]

    config = _grid_config(
        regions, n_repeats, scale, models_factory, budget, base_seed, fast, feature_config
    )
    journal: RunJournal | None = None
    if resume is not None:
        journal = RunJournal.open(resume)
        journal.check_config(config)
    elif run_dir is not None:
        journal = RunJournal.create(run_dir, config)

    # Traces live beside the journal so they resume with the run: an
    # enabled-but-unbound recorder gets pointed at <run_dir>/trace.jsonl
    # (also exported via REPRO_TRACE for process-pool workers).
    recorder = telemetry.get_recorder()
    if journal is not None and recorder.enabled and recorder.trace_path is None:
        recorder.set_trace_path(Path(journal.run_dir) / telemetry.TRACE_NAME)

    restored: dict[str, RegionRun] = (
        journal.load_completed(specs) if journal is not None else {}
    )
    pending = [spec for spec in specs if spec.cell_id not in restored]
    if journal is not None:
        journal.log_event(
            "run_started",
            n_cells=len(specs),
            n_restored=len(restored),
            on_error=on_error,
        )

    journal_dir = str(journal.run_dir) if journal is not None else None
    tasks = [(spec, _comparison_cell, journal_dir, policy) for spec in pending]
    with telemetry.span(
        "grid", cells=len(specs), pending=len(pending), restored=len(restored)
    ):
        # One map over every pending cell: cells are few and expensive (six
        # model fits each), so each goes to a worker on its own, and each
        # worker builds the regions its cells need.
        envelopes = safe_parallel_map(
            execute_cell, tasks, resolve_executor(jobs, executor)
        )
    # Envelope errors are infrastructure failures (unpicklable factory, dead
    # journal directory, …) — never cell failures, which execute_cell already
    # captures — so they always raise, regardless of on_error.
    outcomes = [envelope.unwrap() for envelope in envelopes]

    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures and on_error == "raise":
        if journal is not None:
            journal.log_event("run_aborted", failed=failures[0].spec.cell_id)
        raise CellExecutionError(failures[0])

    by_cell: dict[str, RegionRun] = dict(restored)
    by_cell.update(
        {spec.cell_id: outcome.run for spec, outcome in zip(pending, outcomes) if outcome.ok}
    )
    runs: dict[str, list[RegionRun]] = {region: [] for region in regions}
    for spec in specs:  # specs are repeat-major, so repeats stay ordered
        cell_run = by_cell.get(spec.cell_id)
        if cell_run is not None:
            runs[cell_run.region].append(cell_run)
    empty = [region for region, region_runs in runs.items() if not region_runs]
    for region in empty:
        warnings.warn(
            f"region {region!r}: every cell failed; dropping it from the result",
            stacklevel=2,
        )
        del runs[region]
    if not runs:
        if journal is not None:
            journal.log_event("run_aborted", failed=failures[0].spec.cell_id)
        raise CellExecutionError(failures[0], failures)
    if failures:
        warnings.warn(
            f"{len(failures)} of {len(specs)} cells failed and were skipped "
            f"({', '.join(sorted(o.spec.cell_id for o in failures))}); "
            "see result.failures / the run journal for tracebacks",
            stacklevel=2,
        )
    if journal is not None:
        journal.log_event(
            "run_completed", n_ok=sum(len(v) for v in runs.values()), n_failed=len(failures)
        )
    return ComparisonResult(runs=runs, failures=failures, run_dir=journal_dir)
