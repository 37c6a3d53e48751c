"""Convex-combination certificate: the family's pseudo-tours, weighted by
explicit coefficients, reproduce a scalar multiple of the canonical
fractional tour.  This certifies the metric upper bound on the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ijk import IJK, LabeledVertexSet, fractional_xijk, pseudo_tours

IDENTITY_TOL = 1e-12


class CertificateError(AssertionError):
    """The certificate identity failed; that always means a code bug."""


@dataclass(frozen=True)
class CertificateReport:
    """Verified coefficients and the multiplier they certify."""

    ijk: IJK
    multiplier: float  # 1 + 1/(3 + 2(1/(i+1) + 1/(j+1) + 1/(k+1)))
    coefficients: tuple[tuple[str, float], ...]  # pseudo-tour name -> lambda
    sum_error: float
    max_entry_error: float


def lambda_certificate(p: IJK) -> CertificateReport:
    """Check the convex-combination identity and return the report.

    sum(lambda) must be 1 and sum(lambda_T * chi^T) must equal
    multiplier * x entrywise, both within 1e-12.  Violations raise
    CertificateError; they cannot occur for a correct implementation.
    """
    sigma = 1.0 / (p.i + 1) + 1.0 / (p.j + 1) + 1.0 / (p.k + 1)
    denom = 3.0 + 2.0 * sigma
    multiplier = 1.0 + 1.0 / denom

    tours = pseudo_tours(p)
    lines = LabeledVertexSet(p).lines
    # Gap members split their line's 1/denom budget; each anchor tour
    # carries its line's full 1/count share, count = the line's edge count.
    lam = [1.0 / ((len(lines[pt.line]) - 1) * denom) for pt in tours]
    # cumsum adds in tour order, one term at a time, on every Python.
    sum_error = abs(float(np.cumsum(lam)[-1]) - 1.0)

    combo = np.zeros(p.n * (p.n - 1) // 2)
    for pt, coeff in zip(tours, lam):
        combo += coeff * pt.edges
    max_err = float(np.abs(combo - multiplier * fractional_xijk(p).values).max())

    if sum_error > IDENTITY_TOL:
        raise CertificateError(f"coefficients sum to 1{sum_error:+.3e} at {p}")
    if max_err > IDENTITY_TOL:
        raise CertificateError(f"combination misses {max_err:.3e} at {p}")
    return CertificateReport(
        ijk=p,
        multiplier=multiplier,
        coefficients=tuple((pt.name, c) for pt, c in zip(tours, lam)),
        sum_error=sum_error,
        max_entry_error=max_err,
    )
