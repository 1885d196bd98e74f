"""Mobile-core consumers for generated traffic.

* :class:`MmeSimulator` — a single-function MME worker pool with
  per-UE protocol validation (quick load checks).
* :class:`CoreNetworkSimulator` — a procedure-level discrete-event
  simulation of the full EPC / 5GC control plane (per-function load,
  end-to-end procedure latency, bottleneck analysis).

Both run on one engine (:mod:`repro.mcn.network`): array passes where
no message waits, a heap loop over messages where messages queue.  The
MME is lowered as a one-function core of one-step procedures.
"""

from .mme import DEFAULT_SERVICE_MEANS, MmeReport, MmeSimulator
from .network import (
    CoreNetworkSimulator,
    CoreReport,
    FunctionReport,
    ProcedureReport,
)
from .procedures import (
    EPC_FUNCTIONS,
    EPC_PROCEDURES,
    EPC_TO_5GC,
    FIVEGC_FUNCTIONS,
    FIVEGC_PROCEDURES,
    Procedure,
    Step,
    functions_for,
    procedures_for,
)

__all__ = [
    "CoreNetworkSimulator",
    "CoreReport",
    "DEFAULT_SERVICE_MEANS",
    "EPC_FUNCTIONS",
    "EPC_PROCEDURES",
    "EPC_TO_5GC",
    "FIVEGC_FUNCTIONS",
    "FIVEGC_PROCEDURES",
    "FunctionReport",
    "MmeReport",
    "MmeSimulator",
    "Procedure",
    "ProcedureReport",
    "Step",
    "functions_for",
    "procedures_for",
]
