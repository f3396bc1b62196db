"""Entity alignment across knowledge graphs.

Structural embeddings, name features, adaptive similarity fusion, and
collective decoding with exclusiveness and coherence constraints.
"""

from .collective import (
    AlignmentEnvironment,
    AlignmentResult,
    RlConfig,
    a2c_align,
    build_environment,
    count_multiplicities,
    greedy_independent,
    hungarian,
    preliminary_filter,
    stable_matching,
)
from .fusion import (
    ConfidentCorrespondence,
    FeatureWeights,
    FusionConfig,
    adaptive_fuse,
    confident_correspondences,
    correspondence_weights,
    feature_weights,
    fuse,
)
from .gcn import TrainConfig, init_features, train
from .kg import (
    AlignmentDataset,
    KnowledgeGraph,
    adjacency,
    load_alignment,
    load_kg,
    neighbor_sets,
    save_alignment,
    save_kg,
    split_alignment,
)
from .measures import Measure, SimilarityMatrix, sim_matrix
from .metrics import EvalReport, fusion_poc, hits_mrr, prf
from .names import (
    NameEmbeddingMatrix,
    WordVectorTable,
    lev_ratio,
    levenshtein,
    load_word_vectors,
    name_embedding_matrix,
    string_sim_matrix,
)
from .pipeline import PipelineConfig, run_pipeline
from .synth import gen_synthetic, write_synthetic

__version__ = "0.1.0"
