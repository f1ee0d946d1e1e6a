"""The per-event path reads enum members bound at import, never the class.

On Python 3.10 and 3.11 ``Reason.X`` goes through ``EnumType.__getattr__``,
a slow-path lookup of about 130 ns that the interpreter cannot specialise;
a replay would make several per arrival. So each function below reads
private module constants (``_EVICTION = Reason.EVICTION``) instead, and this
test fails once one of them names an enum class again.
"""

import pytest

from mempoolsim import AdmissionOutcome, Mempool, classify_outcome, replay
from mempoolsim.builder import drain
from mempoolsim.policies import POLICIES

_ENUM_CLASSES = {"Reason", "OutcomeClass", "OutcomeKind"}

_PER_EVENT = {
    "Mempool.precheck": Mempool.precheck,
    "Mempool.admit": Mempool.admit,
    "Mempool.apply_admission": Mempool.apply_admission,
    **{f"POLICIES[{k!r}].decide": policy.decide for k, policy in POLICIES.items()},
    "AdmissionOutcome.__init__": AdmissionOutcome.__init__,
    "AdmissionOutcome.admitted": AdmissionOutcome.admitted.fget,
    "classify_outcome": classify_outcome,
    "replay": replay,
    "builder.drain": drain,
}


@pytest.mark.parametrize("fn", list(_PER_EVENT.values()), ids=list(_PER_EVENT))
def test_loads_no_enum_class(fn):
    loaded = _ENUM_CLASSES.intersection(fn.__code__.co_names)
    assert not loaded, f"{fn.__qualname__} loads {sorted(loaded)}"
