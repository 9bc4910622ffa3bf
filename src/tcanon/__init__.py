"""Exact census and canonical forms of T-depth-one Clifford+T unitaries.

Everything is integer arithmetic: Paulis are bit pairs, Cliffords are
tableaux, channels are matrices over Z[sqrt2, 1/2], and the dense oracle
works over Z[zeta16, 1/2].  No floats touch any decision.
"""

from .canonical import (CanonicalForm, TLayer, TLayerCircuit, WidthMismatchError,
                        canonicalize_depth_d, canonicalize_depth_one,
                        channel_of_circuit, parse_circuit, parse_form)
from .census import (DEFAULT_SEED, FeasibilityRefusalError,
                     VerificationReport, count_sets, count_tdepth_one,
                     count_tuples, emit_table, enumerate_sets, growth_check,
                     random_pauli_set, verify_distinctness,
                     verify_hamming_weight, verify_oracle, verify_spectrum,
                     verify_unit_rows)
from .channel import (ChannelRep, SpectrumMismatchError, channel_of_canonical,
                      channel_of_clifford, channel_of_exponential,
                      infer_t_count)
from .clifford import (CliffordTableau, from_gate_word, group_order,
                       random_clifford)
from .exactnum import Cyclotomic16Scalar, DyadicSqrt2Scalar
from .oracle import (DenseUnitary, channel_bruteforce, dense_of_exponential,
                     dense_of_gate_word, dense_of_pauli, dense_of_t_layer)
from .pauli import (PauliOperator, PauliSet, commutant, parse_pauli,
                    validate_set)

__version__ = "0.1.0"
