"""Simulation-state wrapper around the CH-form stabilizer engine.

``StabilizerChFormSimulationState`` binds :class:`StabilizerChForm` to a
qubit register; the act-on dispatch, queries, copies and snapshot hooks
are :class:`~repro.states.base.StabilizerSimulationState`'s.  Operations
apply through their ``_stabilizer_sequence_`` decomposition into CH
primitives; non-Clifford operations raise ``ValueError`` unless routed
through :func:`repro.sampler.act_on_near_clifford`, which expands
``Rz(theta)`` gates stochastically (paper Sec. 4.2).
"""

from __future__ import annotations

import numpy as np

from .base import StabilizerSimulationState, engine_alias
from .chform import StabilizerChForm


class StabilizerChFormSimulationState(StabilizerSimulationState):
    """CH-form stabilizer simulation state bound to a qubit register.

    Born queries cost ``O(n^2)``, independent of circuit depth.
    """

    _engine_type = StabilizerChForm
    _payload_tag = "stabilizer_ch_form"
    ch_form = engine_alias

    def state_vector(self) -> np.ndarray:
        """Dense wavefunction (exponential; testing only)."""
        return self.engine.state_vector()
