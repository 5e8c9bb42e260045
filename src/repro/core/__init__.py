"""Meteor Shower checkpoint schemes and the baseline (the paper's §III).

Four schemes, one interface:

* :class:`BaselineScheme` — state of the art circa 2012 (§II-B3):
  independent periodic synchronous checkpoints at random phases, with
  *input preservation* (every HAU retains output tuples in a 50 MB
  buffer spilling to local disk until each out-edge's downstream
  checkpoint acks them; :class:`~repro.core.preservation.InputPreserver`).
* :class:`MSSrc` — basic Meteor Shower: cascading tokens, synchronous
  individual checkpoints, *source preservation*.
* :class:`MSSrcAP` — + parallel (controller-broadcast 1-hop tokens) and
  asynchronous (fork/copy-on-write child) checkpointing.
* :class:`MSSrcAPAA` — + application-aware timing: profile state sizes,
  alert mode below ``smax``, trigger on the first non-negative aggregate
  ICR turning point.
* :class:`OracleScheme` — MS-src+ap checkpointing at externally supplied
  instants (the true state minima, measured from a prior run) — the
  paper's "Oracle" upper bound.

All Meteor Shower variants share global rollback recovery
(:mod:`repro.core.recovery`) and source preservation
(:mod:`repro.core.preservation`).  Saving a checkpoint is one step
(``CheckpointScheme.write_checkpoint``) and restoring one is one step
(:func:`repro.core.recovery.restore`, which the baseline's 1-safe restart
drives too); what each HAU committed, the MRC and aa's decisions are read
back from the scheme's run record (``scheme.record``), the one ledger.
:data:`SCHEMES` maps every scheme name to its class;
``SCHEMES[name].from_config(cfg)`` builds one for a run.
"""

from repro.core.costs import CostModel
from repro.core.base import MeteorShowerBase
from repro.core.baseline import BaselineScheme
from repro.core.ms_src import MSSrc
from repro.core.ms_ap import MSSrcAP, OracleScheme
from repro.core.ms_aa import MSSrcAPAA
from repro.core.recovery import GlobalRecovery
from repro.core.delta import DeltaPolicy, DeltaTracker
from repro.dsps.runtime import CheckpointScheme
from repro.vocabulary import SCHEME_NAMES

SCHEMES: dict[str, type[CheckpointScheme]] = {
    cls.name: cls
    for cls in (CheckpointScheme, BaselineScheme, MSSrc, MSSrcAP, MSSrcAPAA, OracleScheme)
}
if set(SCHEMES) != set(SCHEME_NAMES):
    raise ImportError(
        f"scheme registry {sorted(SCHEMES)} != vocabulary.SCHEME_NAMES {sorted(SCHEME_NAMES)}"
    )

__all__ = [
    "SCHEMES",
    "CostModel",
    "MeteorShowerBase",
    "BaselineScheme",
    "MSSrc",
    "MSSrcAP",
    "MSSrcAPAA",
    "OracleScheme",
    "GlobalRecovery",
    "DeltaPolicy",
    "DeltaTracker",
]
