"""Max flow from many sources to a bounded sink set on embedded planar graphs."""

from .decomposition import (Division, DivisionParams, Hole, Piece,
                            attach_super_sinks, cycle_separator, divide,
                            division_tree, root_piece, triangulate)
from .embedding import (EmbeddedGraph, build_graph, induced_subgraph,
                        insert_vertices_in_faces)
from .errors import (CannotSatisfyBounds, CyclicSupport, DanglingDart,
                     InvalidParams, NonEmbedding, NotConnected, ParseError,
                     PlanarFlowError, SearchFailed, SeparatorFailed,
                     TooManySinks)
from .flowstate import (Cut, FlowState, cancel_flow_cycles, check_cut_saturated,
                        cut_from_side, drain_excess, flow_value, is_max_preflow)
from .formats import (Instance, parse_flow, parse_instance, write_flow,
                      write_instance)
from .generators import generate_instance, grid_graph, stacked_triangulation
from .maxflow import DEFAULT_ENGINE, ENGINES, max_st_flow, residual_reachable
from .oracle import (build_fig1_counterexample, load_fig1_fixture, oracle_value,
                     validate_flow)
from .solver import (SolveTrace, pairwise_arbitrary_saturation, piece_maxflow,
                     sequential_saturation, solve_recursive)

__version__ = "0.1.0"
