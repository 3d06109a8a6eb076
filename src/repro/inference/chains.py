"""Trace storage for MCMC runs: burn-in, thinning, summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Trace:
    """Samples of named quantities collected across MCMC iterations.

    Quantities may be scalars or fixed-shape arrays; ragged quantities
    (e.g. per-cluster parameters whose count varies) should be reduced to
    fixed-shape summaries before recording.
    """

    _samples: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def record(self, **quantities: float | np.ndarray) -> None:
        """Append one iteration's values."""
        for name, value in quantities.items():
            self._samples.setdefault(name, []).append(np.asarray(value, dtype=float))

    def extend(self, name: str, values: np.ndarray) -> None:
        """Append many iterations of one *scalar* quantity at once.

        Bulk ingestion for whole per-sweep series (e.g. a chain's cluster
        count trace being pooled by the health monitor) without a Python
        call per sample.
        """
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"extend takes a 1-D series, got shape {arr.shape}")
        self._samples.setdefault(name, []).extend(np.asarray(v) for v in arr)

    def scalar_names(self) -> list[str]:
        """Names whose recorded samples are scalars (health-diagnosable)."""
        return [
            name
            for name, samples in self._samples.items()
            if samples and samples[0].ndim == 0
        ]

    def __contains__(self, name: str) -> bool:
        return name in self._samples

    def names(self) -> list[str]:
        return list(self._samples)

    def __len__(self) -> int:
        if not self._samples:
            return 0
        return len(next(iter(self._samples.values())))

    def get(self, name: str, burn_in: int = 0, thin: int = 1) -> np.ndarray:
        """Stacked samples of ``name`` after dropping ``burn_in`` and thinning."""
        if name not in self._samples:
            raise KeyError(f"no quantity named {name!r} recorded")
        if burn_in < 0 or thin < 1:
            raise ValueError("burn_in must be >= 0 and thin >= 1")
        values = self._samples[name][burn_in::thin]
        if not values:
            return np.zeros((0,))
        return np.stack(values)

    def mean(self, name: str, burn_in: int = 0, thin: int = 1) -> np.ndarray | float:
        """Posterior-mean estimate of ``name`` from the retained samples."""
        samples = self.get(name, burn_in=burn_in, thin=thin)
        if samples.size == 0:
            raise ValueError(f"no samples of {name!r} retained after burn-in/thinning")
        mean = samples.mean(axis=0)
        return float(mean) if mean.ndim == 0 else mean

    def quantile(
        self, name: str, q: float | list[float], burn_in: int = 0, thin: int = 1
    ) -> np.ndarray:
        """Posterior quantiles of ``name``."""
        samples = self.get(name, burn_in=burn_in, thin=thin)
        if samples.size == 0:
            raise ValueError(f"no samples of {name!r} retained after burn-in/thinning")
        return np.quantile(samples, q, axis=0)
