"""Desk-scale laboratory for multiparty quantum coin flipping.

Layers, bottom up:

- ``quantum``:    exact states, marginals, measurements, Helstrom.
- ``sdp``:        dense block-PSD solver and dual-certificate checks.
- ``penalty``:    two-party coin flipping with penalty for cheating.
- ``broadcast``:  the k-party quantum broadcast channel and its emulations.
- ``multiparty``: elimination tournaments, lightest-bin selection, bias bounds.
- ``protocols``:  unitary-round protocol descriptions and encodings.
- ``lowerbound``: optimal-cheat SDPs and the product lower bound machinery.
- ``cli``:        batch front end reproducing the quantitative claims.
"""

__version__ = "0.1.0"

from .broadcast import (
    broadcast_qubit,
    classical_broadcast,
    emulate_broadcast_pairwise,
    establish_epr,
    simulate_quantum_channel_via_qbc,
    teleport,
)
from .lowerbound import (
    cheat_product_check,
    dual_bound_sequence,
    group_players,
    multiparty_bias_bound,
    optimal_cheat,
)
from .multiparty import (
    AdversaryModel,
    combined_bias,
    lightest_bin_select,
    naive_tournament_bound,
    simulate_tournament,
    tournament_bound,
)
from .penalty import (
    PenaltyGame,
    alice_attack_sdp,
    bob_attack,
    commit_state,
    dual_certificate,
    expected_win_bound,
    run_honest,
)
from .protocols import (
    KPartyProtocol,
    alice_announces,
    announce_kparty,
    honest_state,
    load_protocol,
    penalty_protocol,
    penalty_protocol_compact4,
    save_protocol,
    two_party,
    validate_protocol,
)
from .quantum import (
    DensityMatrix,
    HilbertLayout,
    StateVector,
    apply_unitary,
    as_rng,
    helstrom,
    measure,
    tensor,
)
from .sdp import (
    Constraint,
    LinearTerm,
    SdpProblem,
    SdpSolution,
    duality_gap,
    solve,
    verify_dual,
)
