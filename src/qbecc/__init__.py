"""Workbench for quantum burst-error-correcting stabilizer codes."""

from .burst import (BurstAnalysis, BurstCapability, burst_count, check_qrb,
                    classical_burst_capability, located_burst_check,
                    no_cloning_check, qrb, quantum_burst_capability,
                    rs_burst_capability)
from .channel import (ChannelModel, DecoderTable, EfResult, SweepPoint,
                      build_decoder, cond_prob, entanglement_fidelity,
                      error_prob, sweep, sweep_to_csv)
from .classical import (CyclicCode, LinearCode, binary_dual_containing,
                        cyclic_from_poly, hermitian_dual_containing,
                        linear_code, rs_mds)
from .gf import (GF2, GF4, ExtField, Poly, UnsupportedDegreeError,
                 berlekamp_factor, ext2_field_build, ext_field_build, f4_add,
                 f4_conj, f4_inv, f4_mul, poly_divmod, poly_gcd, xn_minus_1)
from .qtpc import (DispersalReport, InterleaverMap, QtpcSpec, deinterleave,
                   dispersal_report, interleave, qtpc_construct,
                   tensor_check_matrix)
from .registry import RegistryEntry, load_registry, registry_entry
# qbecc.search stays the module; its search() is reached through it
from .search import (GenPolySpec, SearchPlan, SearchRecord, SearchOutcome,
                     build_registry_code, enumerate_cyclic_generators,
                     format_genpoly, parse_genpoly, records_to_csv,
                     reproduce_table1)
from .stabilizer import (CommutationError, F4Vector, ResourceLimitError,
                         StabilizerCode, SymplecticVector, additive_code,
                         burst_length, css_construct, f4_symplectic_map,
                         hermitian_construct, symplectic_f4_map,
                         symplectic_ip)

__version__ = "0.1.0"
