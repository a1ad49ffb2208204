"""popgcn: population-graph spectral GCN toolkit.

Build a population graph from imaging feature vectors and phenotypic
measures, classify its nodes semi-supervised with Chebyshev-filter graph
convolutions, and evaluate with a grouped stratified cross-validation
harness. The CLI subcommands are described in popgcn.cli, and the feature and
phenotype CSV formats in popgcn.dataset.load_features and load_phenotypes.

The package holds only what the popgcn subcommands run. The scalar
definitions of the graph weights and the eigendecomposition filter, which the
tests check the vectorized code against, live in the tests.

Features CSV contract: quoting follows the default `csv` dialect; blank lines
are skipped; there is no comment character; feature cells are numbers in C
`strtod` syntax, without digit separators ('1_0' is not a number).
"""

from .dataset import (
    UNKNOWN_LABEL,
    AcquisitionRecord,
    FeatureMatrix,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    load_features,
    load_phenotypes,
)
from .popgraph import (
    GraphSpec,
    PopulationGraph,
    build_complete_graph,
    build_graph,
    build_knn_graph,
    build_phenotypic_graph,
    build_random_graph,
)
from .spectral import (
    LaplacianMatrix,
    chebyshev_basis,
    estimate_lambda_max,
    normalized_laplacian,
    scale_laplacian,
)
from .gcn import GcnConfig, GcnModel, predict, train
from .featsel import FeatureSelector, SelectorConfig
from .baselines import BaselineConfig, ridge_classify
from .harness import (
    ExperimentDescriptor,
    ExperimentReport,
    compute_metrics,
    ensemble_seeds,
    run_experiment,
    stratified_group_kfold,
)

__version__ = "0.1.0"
