"""Self-supervised heterogeneous graph embeddings via rank-constrained
spectral clustering, with an executable verification suite."""

from .affinity import (AffinityMatrix, affinity_rows, build_affinity, laplacian,
                       propagate)
from .encoders import (ClusterAssignment, DenseLayer, EncoderStack,
                       cluster_assign, hetero_encode, orthogonal_layer)
from .evaluation import (EvalReport, complexity_measure, concat_representation,
                         evaluate, kmeans_cluster, linear_probe, silhouette)
from .graph import (HeteroGraph, Relation, RelationNeighborhood,
                    build_neighborhoods, load_graph, save_graph)
from .losses import (LossReport, cluster_consistency, cluster_pool,
                     node_consistency, spectral_loss, total_objective)
from .synth import SynthSpec, generate
from .trainer import (AdamState, FitResult, TrainConfig, TrainState, fit,
                      optimizer_step, train_epoch)
from .verify import (VerificationResult, gradient_check, kyfan_check,
                     qp_oracle, ratiocut_check, run_suite, zero_eig_count)

__version__ = "0.1.0"
