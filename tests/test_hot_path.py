"""The per-event path reads enum members bound at import, never the class.

On Python 3.10 and 3.11 ``Reason.X`` goes through ``EnumType.__getattr__``,
a slow-path lookup of about 130 ns that the interpreter cannot specialise;
a replay would make several per arrival. So each function below reads
private module constants (``_EVICTION = Reason.EVICTION``) instead, and this
test fails once one of them names an enum class again. A nested function,
and on Python 3.11 and before a comprehension, has a code object of its own
among its parent's constants, with its own global loads, so the test reads
those too.
"""

from types import CodeType

import pytest

from mempoolsim import AdmissionOutcome, Mempool, Reason, RunReport, classify_outcome, replay
from mempoolsim.builder import _fill, candidate_order, drain
from mempoolsim.replay import _cache_report_json, _flag_walk
from mempoolsim.policies import POLICIES

_ENUM_CLASSES = {"Reason", "OutcomeClass"}

_PER_EVENT = {
    "Mempool.precheck": Mempool.precheck,
    "Mempool.admit": Mempool.admit,
    "Mempool.apply_admission": Mempool.apply_admission,
    **{f"POLICIES[{k!r}].decide": policy.decide for k, policy in POLICIES.items()},
    "AdmissionOutcome.__init__": AdmissionOutcome.__init__,
    "AdmissionOutcome.admitted": AdmissionOutcome.admitted.fget,
    "classify_outcome": classify_outcome,
    "replay": replay,
    "builder.candidate_order": candidate_order,
    "builder._fill": _fill,
    "builder.drain": drain,
    # each runs once per outcome, in a comprehension
    "RunReport._ledger": RunReport._ledger,
    "RunReport.declined": RunReport.declined.fget,
    # each walks every outcome
    "RunReport.pending_sets": RunReport.pending_sets,
    "RunReport.util": RunReport.util.fget,
    "replay._flag_walk": _flag_walk,
    # runs once per tx the report names
    "replay._cache_report_json": _cache_report_json,
    # each encodes every entry of the report, in nested comprehensions
    "RunReport.report_hash": RunReport.report_hash,
    "RunReport._digest": RunReport._digest,
    # counts the outcomes' reasons
    "RunReport._summary": RunReport._summary,
}


def _names(code: CodeType) -> set:
    """The names ``code`` and every code object nested in it load."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= _names(const)
    return names


@pytest.mark.parametrize("fn", list(_PER_EVENT.values()), ids=list(_PER_EVENT))
def test_loads_no_enum_class(fn):
    loaded = _ENUM_CLASSES.intersection(_names(fn.__code__))
    assert not loaded, f"{fn.__qualname__} loads {sorted(loaded)}"


def test_a_load_in_a_comprehension_is_seen():
    def evictions(outcomes):
        return [o for o in outcomes if o.reason is Reason.EVICTION]

    assert "Reason" in _names(evictions.__code__)
