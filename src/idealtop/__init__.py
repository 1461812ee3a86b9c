"""idealtop: a finite-model laboratory for ideal topological spaces.

Represent small topologies as minimal-neighborhood tables and ideals as
carrier sets, compute the local function / star closure / psi operator /
star topology, check the map-preservation theorems instance by instance,
replay the constructed counterexamples, and exhaustively certify or refute
theorem variants over every instance with a few points.
"""

from .errors import (BadMask, BadPoint, BadSearchOption, CapExceeded,
                     DimensionMismatch, IdealTopError, InputFileError,
                     NotATopology, UnknownHypothesisName, UnknownTheorem)
from .space import (MAX_POINTS, SeparationProfile, Topology, closure,
                    discrete, format_mask, full_mask, generate_topology,
                    indiscrete, interior, is_open, make_topology, mask_of,
                    point_space, points_of, separation_profile, sierpinski,
                    submasks, topology_from_json, topology_to_json)
from .ideal import (Ideal, TransferConditions, contains, fin, ideal_from_json,
                    ideal_to_json, image_ideal, make_ideal, power_set_ideal,
                    transfer_conditions, trivial_ideal)
from .maps import (FiniteMap, MapProfile, classify, compose, constant_map,
                   continuity_characterizations, identity_map, image,
                   image_table, map_from_json, map_to_json, preimage,
                   preimage_table)
from .star import (IdealSpace, LawCheck, LAW_NAMES, check_local_function_laws,
                   is_compatible, is_ideal_compact, local_function,
                   local_function_by_definition, psi, psi_topology,
                   star_closure, star_topology)
from .theorems import (ALL_THEOREM_IDS, Collapse, Extension, Instance,
                       Verdict, Witness, add_generic_point_instance,
                       add_open_point_instance, check, collapse_point_instance,
                       ctor_add_generic_point, ctor_add_open_point,
                       ctor_collapse_point, VARIANT_CONT, VARIANT_OPEN)
from .search import (Counterexample, SearchBounds, SearchReport,
                     enumerate_ideals, enumerate_maps, enumerate_topologies,
                     find_counterexample, sample_search, verify_exhaustive)

__version__ = "0.1.0"
