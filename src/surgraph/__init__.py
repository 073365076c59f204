"""Scene graphs from segmentation masks and a GCN surgical-phase classifier.

The pieces, in pipeline order: `ingest` reads masks/labels/manifests,
`scene_graph` turns one mask into a graph, `dynamic_graph` stitches a dilated
window of graphs together, `gcn` classifies a graph into a phase (with
hand-written gradients in `numerics`), `pipeline` trains and evaluates,
`explain` scores edge/node importance for a prediction, and `synth` generates
rule-labelled synthetic data for end-to-end validation.
"""

__version__ = "0.1.0"

from . import errors
from .dynamic_graph import (
    DynamicGraph,
    WindowConfig,
    WindowText,
    build_dynamic_graph,
    context_seconds,
    dynamic_graph_to_json,
    graph_from_json,
    graph_to_json,
    load_graph_json,
    select_window,
    temporal_encoding,
)
from .explain import (
    ExplainConfig,
    Explanation,
    explain_prediction,
    export_dot,
    extract_subgraphs,
)
from .gcn import (
    AdamHyper,
    AdamState,
    GcnConfig,
    GcnModel,
    adam_step,
    forward,
    gcn_layer_forward,
    global_add_pool,
    init_model,
    load_checkpoint,
    normalize_adjacency,
    save_checkpoint,
)
from .ingest import (
    DatasetManifest,
    EmbeddingTable,
    LabelMap,
    PhaseTrack,
    SegmentationMask,
    VideoEntry,
    default_label_map,
    load_label_map,
    load_manifest,
    load_mask,
    load_phase_labels,
    write_mask,
)
from .metrics import Metrics, compute_metrics, confusion_matrix
from .numerics import SparseAdjacency, cross_entropy, grad_check, softmax
from .pipeline import (
    GraphSample,
    TrainConfig,
    build_samples,
    evaluate,
    run_ablation,
    split_dataset,
    train,
)
from .scene_graph import (
    FeatureConfig,
    NodeRecord,
    SceneGraph,
    Segments,
    build_static_graph,
    compute_adjacency,
    extract_segments,
    spatial_encoding,
)
from .synth import (
    ScriptPhase,
    SynthConfig,
    generate_dataset,
    generate_sequence,
    oracle_phase,
    preset_distinct_tools,
    preset_order_dependent,
    preset_planted_contact,
)
