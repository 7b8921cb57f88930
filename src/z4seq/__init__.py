"""Quaternary sequences over Z4 from order-four generalized cyclotomy.

Construction of the residue-class systems modulo pq, sequence generation,
Galois-ring GR(4, 4^r) arithmetic, defining polynomials via the ring DFT,
closed-form and synthesized linear complexity, and trace-form verification.

Exported names and the stage submodules load on first access (PEP 562).
Ring arithmetic is on packed Python ints and the register synthesis of
`lfsr` on bit planes, so the package needs the standard library alone.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("admissible_pairs", "analyze", "dft", "lc_by_count", "power_table",
                 "rho_value", "verify_identities"),
    "cyclotomy": ("CASE1", "CASE2", "CyclotomicSystem", "build_system",
                  "count_solutions", "lc_by_theorem"),
    "galois": ("GaloisRing", "GrElement", "is_constant", "make_ring",
               "root_of_unity"),
    "lfsr": ("LfsrResult", "reeds_sloane"),
    "numtheory": ("R_MAX", "common_primitive_root", "crt_pair", "euler_phi",
                  "factorize", "is_prime", "mult_order"),
    "sequence": ("QuaternarySequence", "generate", "to_csv", "to_text"),
    "trace_repr": ("TraceParams", "check_trace_repr", "trace_params"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)


def _flush_streams():
    """Flush each standard stream the process has: one whose descriptor was
    closed when the process started is None.  The CLI and the sweep's
    workers call it before `os._exit`, which flushes nothing, and the sweep
    before it forks, so that no child inherits a copy of the buffers."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
