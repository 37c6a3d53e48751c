"""Instance families, their closed forms, pseudo-tours, and certificates."""

from .certificates import CertificateError, CertificateReport, lambda_certificate
from .ijk import (
    ANCHOR_TAGS,
    GAP_TAGS,
    METRIC,
    RECTILINEAR,
    IJK,
    PseudoTour,
    best_partition,
    closed_form_lp_I2,
    closed_form_lp_I3,
    closed_form_opt_I2,
    closed_form_opt_I3,
    closed_form_ratio_I2,
    closed_form_ratio_metric,
    fractional_xijk,
    gen_I2,
    gen_I3,
    ijk_of_labels,
    labeled_vertices,
    line_gaps,
    metric_maximum_ratio,
    pseudo_tour,
    pseudo_tours,
    shortcut_tour,
)
from .subdivision import (
    ODD_VERTEX_CAP,
    MatchingCapError,
    SubdividedGraphSpec,
    gen_subdivided,
    hexagon_spec,
    tetrahedron_spec,
    tjoin_ratio_bound,
)
