"""Workbench for quantum burst-error-correcting stabilizer codes.

The names below are re-exported lazily (PEP 562): a module is imported on
first use of one of its names, so `import qbecc` loads no numpy.
qbecc.search stays the module; its search() is reached through it.
"""

import importlib

_EXPORTS = {
    "burst": ("BurstAnalysis", "BurstCapability", "burst_count", "check_qrb",
              "classical_burst_capability", "no_cloning_check", "qrb",
              "quantum_burst_capability"),
    "channel": ("ChannelModel", "CodeLabels", "DecoderTable", "EfResult",
                "SweepPoint", "build_decoder", "cond_prob",
                "entanglement_fidelity", "sweep", "sweep_to_csv"),
    "classical": ("LinearCode", "binary_dual_containing",
                  "cyclic_from_poly", "hermitian_dual_containing",
                  "rs_mds"),
    "gf": ("GF2", "GF4", "ExtField", "Poly", "UnsupportedDegreeError",
           "berlekamp_factor", "poly_gcd", "xn_minus_1"),
    "qtpc": ("DispersalReport", "InterleaverMap", "deinterleave",
             "dispersal_report", "qtpc_construct", "tensor_check_matrix"),
    "registry": ("RegistryEntry", "load_registry", "registry_entry"),
    "search": ("SearchPlan", "SearchRecord", "SearchOutcome",
               "build_registry_code", "enumerate_cyclic_generators",
               "format_genpoly", "parse_genpoly", "records_to_csv",
               "reproduce_table1"),
    "stabilizer": ("CommutationError", "F4Vector", "ResourceLimitError",
                   "StabilizerCode", "css_construct", "hermitian_construct"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, reachable as before without its own import
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
