"""musprune: learned graph-based clause pruning for MUS enumeration.

Pipeline: CNF formula -> literal-clause graph -> per-clause prune scores
from a message-passing model -> binary-search threshold pruning -> MUS
enumeration on the smaller, still-unsatisfiable formula.
"""

from .cnf import (CnfFormula, DimacsFormatError, FormulaStats, clause_stats,
                  parse_dimacs, prune_clauses, write_dimacs)
from .generators import (GenSpec, coloring_encoding, emit_corpus,
                         gen_graph_coloring, gen_sr_random, gen_stat_matched,
                         generate)
from .lcg import LiteralClauseGraph, build_lcg, make_input_features
from .model import (ModelConfig, ModelParams, forward, init_params,
                    load_checkpoint, log_prob, sample_mask, save_checkpoint,
                    score_clauses, score_with_pullback)
from .mus import (EnumerationTrace, MusRecord, brute_force_muses,
                  enumerate_marco, is_mus, lift_muses, shrink,
                  truth_table_satisfiable)
from .pruning import (PruneOutcome, clause_length_prune, none_prune,
                      random_prune, threshold_prune, variable_frequency_prune)
from .sat import (SAT, UNKNOWN, UNSAT, SatEngine, SatResult, Solver,
                  SolveStats)
from .training import (OptimizerState, TrainConfig, TrainMetrics, adam_update,
                       evaluate_loss, prune_loss, reinforce_step, train)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
