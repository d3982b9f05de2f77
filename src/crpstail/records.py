"""Forecast/observation record containers.

A :class:`RecordBatch` stores a same-family column of forecasts with paired
observations in flat numpy arrays — the layout every Monte Carlo path in this
package runs on. Every record family is scored on these arrays by the
vectorized kernels of :mod:`crpstail.distributions`, the weighted score too.

The family tag "ensemble" marks rows whose ``params`` are raw ensemble
members rather than distribution parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .distributions import check_params, family_entry
from .errors import ParameterError

__all__ = ["RecordBatch", "batch_cdf"]


@dataclass(frozen=True)
class RecordBatch:
    """Columnar batch of same-family forecast/observation records.

    Parameter rows are validated against the family's rule on construction;
    a :class:`~crpstail.errors.ParameterError` names the first bad row.
    """

    t: np.ndarray
    y: np.ndarray
    family: str
    params: np.ndarray
    hidden: np.ndarray | None = None

    def __post_init__(self):
        self._conform()
        check_params(self.family, self.params)

    @classmethod
    def _of_checked(cls, **columns) -> "RecordBatch":
        """The batch of ``columns`` whose parameter rows have been checked
        already, as the record reader checks each chunk it reads: the rows
        are not checked a second time."""
        batch = object.__new__(cls)
        for field in fields(cls):
            object.__setattr__(batch, field.name, columns.get(field.name, field.default))
        batch._conform()
        return batch

    def _conform(self):
        """Columns as arrays of their dtypes, of one length."""
        t = np.asarray(self.t, dtype=np.int64)
        y = np.asarray(self.y, dtype=float)
        params = np.atleast_2d(np.asarray(self.params, dtype=float))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "params", params)
        if self.hidden is not None:
            object.__setattr__(self, "hidden", np.asarray(self.hidden, dtype=float))
        n = y.size
        if t.size != n or params.shape[0] != n:
            raise ParameterError("record batch columns must share a common length")
        if self.hidden is not None and self.hidden.size != n:
            raise ParameterError("hidden column length mismatch")

    def __len__(self):
        return self.y.size

    def subset(self, mask_or_index) -> "RecordBatch":
        """Rows selected by a slice, a boolean mask or an index array.

        Parameters that broadcast one row (stride 0, as the simulated
        climatological forecasts do) stay a read-only broadcast of that row.
        """
        y = self.y[mask_or_index]
        return RecordBatch(
            t=self.t[mask_or_index],
            y=y,
            family=self.family,
            params=_param_rows(self.params, mask_or_index, y.size),
            hidden=None if self.hidden is None else self.hidden[mask_or_index],
        )

    def cdf_at_obs(self) -> np.ndarray:
        """F_t(y_t) for every record (rank-based surrogate for ensembles)."""
        return batch_cdf(self.family, self.params, self.y)


def _param_rows(params: np.ndarray, index, n: int) -> np.ndarray:
    """``params[index]``, whose ``n`` rows ``index`` selects; parameters that
    broadcast one row (stride 0) stay a read-only broadcast of that row."""
    if params.strides[0] == 0:
        return np.broadcast_to(params[:1], (n, params.shape[1]))
    return params[index]


def batch_cdf(family: str, params: np.ndarray, x) -> np.ndarray:
    """Per-row forecast cdf evaluated at ``x`` (scalar or one value per row)."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    x = np.broadcast_to(np.asarray(x, dtype=float), (params.shape[0],))
    return family_entry(family).cdf(params, x)
