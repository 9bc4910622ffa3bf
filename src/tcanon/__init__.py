"""Exact census and canonical forms of T-depth-one Clifford+T unitaries.

Everything is integer arithmetic: Paulis are bit pairs, Cliffords are
tableaux, channels are matrices over Z[sqrt2, 1/2], and the dense oracle
works over Z[zeta16, 1/2].  No floats touch any decision.
"""

import importlib

__version__ = "0.1.0"

# importing the package imports none of its modules: each name is read from
# its module on first use (PEP 562), so a command loads only what it runs
_EXPORTS = {
    "canonical": "TLayer TLayerCircuit WidthMismatchError "
                 "canonicalize_depth_d channel_of_circuit parse_circuit "
                 "parse_form",
    "census": "FeasibilityRefusalError count_sets count_tdepth_one "
              "count_tuples emit_table enumerate_sets",
    "channel": "ChannelRep SpectrumMismatchError channel_of_canonical "
               "channel_of_clifford channel_of_exponential infer_t_count",
    "clifford": "CliffordTableau from_gate_word group_order random_clifford",
    "exactnum": "Cyclotomic16Scalar DyadicSqrt2Scalar",
    "oracle": "DenseUnitary channel_bruteforce dense_of_exponential "
              "dense_of_gate_word dense_of_t_layer",
    "pauli": "PauliOperator PauliSet commutant parse_pauli validate_set",
    "verify": "DEFAULT_SEED VerificationReport growth_check "
              "random_pauli_set verify_distinctness verify_hamming_weight "
              "verify_oracle verify_spectrum verify_unit_rows",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
