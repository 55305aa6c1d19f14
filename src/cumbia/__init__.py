"""CUMBIA: joint embedding of the samples and variables of a data matrix.

The method turns a matrix into a single configuration of N + p points:
an SVD-derived sample-variable dissimilarity defines a complete bipartite
graph, two-edge-path distances (averaged over the K smallest) extend it to
same-kind pairs, and classical multidimensional scaling embeds the joint
dissimilarity matrix. A PCA/SVD biplot baseline, preprocessing utilities,
a seeded synthetic benchmark, backward-elimination biclustering, and SVG
scatter output round out the toolkit.
"""

__version__ = "1.0.0"

from .bicluster import ShaveStep, ShaveTrace, shave
from .dissimilarity import (
    CumbiaConfig,
    JointDissimilarity,
    joint_matrix,
    sample_variable_diss,
    within_kind_diss,
)
from .embedding import (
    BiplotCoordinates,
    Embedding,
    classical_mds,
    cumbia,
    double_center,
    pca_biplot,
    scree,
)
from .errors import (
    CumbiaError,
    CumbiaWarning,
    InputError,
    InvariantViolation,
    ParameterError,
)
from .ingest import (
    PreprocessReport,
    filter_and_log2,
    load_table,
    synth_block,
    zscore_variables,
)
from .matrix_core import DataMatrix, SvdFactors, svd, truncate
from .plot import emit_scatter

__all__ = [
    "__version__",
    "BiplotCoordinates",
    "CumbiaConfig",
    "CumbiaError",
    "CumbiaWarning",
    "DataMatrix",
    "Embedding",
    "InputError",
    "InvariantViolation",
    "JointDissimilarity",
    "ParameterError",
    "PreprocessReport",
    "ShaveStep",
    "ShaveTrace",
    "SvdFactors",
    "classical_mds",
    "cumbia",
    "double_center",
    "emit_scatter",
    "filter_and_log2",
    "joint_matrix",
    "load_table",
    "pca_biplot",
    "sample_variable_diss",
    "scree",
    "shave",
    "svd",
    "synth_block",
    "truncate",
    "within_kind_diss",
    "zscore_variables",
]
