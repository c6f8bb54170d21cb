"""Temporal-graph state-space models at desk scale.

Continuous-time graph-regularized memory (hippo), its exact one-interval
discretization and the definition of the layers' drive (discretize), one
graph SSM layer forward (`ssm_forward`) with S4/S5/S6 wirings over a
sequential scan, with a chunked parallel scan as its cross-check (layers,
scan), temporal-graph containers and formats (tgraph), a synthetic
node-classification harness (harness), and the oracle-agreement suites that
check the memory flow against its references (verify).  `gssm.cli.main` is
the command-line entry point.
"""

from .discretize import (MixMechanism, MutationSchedule, mixed_estimate,
                         segment_weights, zoh_oracle_step)
from .harness import (ModelConfig, ReadoutParams, Split, SyntheticTask,
                      TaskConfig, extract_features, f1_scores, gen_synthetic,
                      load_labels, named_rng, readout_loss, results_to_csv,
                      run_experiment, sample_model, save_labels, split_nodes,
                      standardize, static_features, train_readout)
from .hippo import (TIME_ORIGIN, HippoConfig, consensus_profile,
                    hippo_legs_matrices, integrate_hippo, projection_oracle,
                    smoothing_matrix)
from .layers import (BlockParams, GnnFlavor, GnnParams, InitStrategy,
                     InterpMixParams, SsmLayerParams, SsmVariant,
                     StateInitRule, align_memory, apply_mix, block_forward,
                     delta_bias_init, glorot, gnn_diffuse, init_a, layer_norm,
                     relu, softplus, ssm_forward)
from .scan import (RecurrenceInputs, bench_recurrence, combine,
                   scan_parallel, scan_sequential)
from .tgraph import (Action, EventStream, LaplacianKind, Snapshot,
                     SnapshotSequence, adjacency_from_edges, edges_at,
                     laplacian, load_sequence, materialize_snapshots,
                     replay_edges, save_sequence, segments,
                     temporal_continuity)

__version__ = "0.1.0"
