"""The task layer's coin identity contracts.

The load-bearing rule: **the perfect coin is not an identity axis**.
A coin-free task, a ``coin=None`` task and a ``coin="perfect"`` task
are one and the same — same ``task_id``, same ``dedup_key``, and
byte-identical JSON wire format and cache payload as before CoinSpecs
existed (pinned here against frozen blobs), so every historical result
cache and golden recording stays valid.  A non-default coin joins the
identity everywhere at once.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import api
from repro.core.coinspec import BiasedCoin, DeltaFailingCoin, PerfectCoin
from repro.errors import CheckError
from repro.protocols import naive_voting
from repro.protocols.registry import by_name, names


#: The pre-CoinSpec wire format of the default mmr14 task, frozen as
#: bytes: if this pin breaks, deployed caches break too.
COIN_FREE_BLOB = (
    '{"protocol": "mmr14", "targets": ["agreement", "validity", '
    '"termination"], "engine": "explicit", "limits": {"max_states": null, '
    '"max_nodes": null, "max_seconds": null}}'
)


#: ``dedup_key`` of the default mmr14 task: the digest of its task id
#: and limits, which a daemon's in-flight dedup collapses requests on.
DEFAULT_DEDUP_KEY = "12acf9b6c404bf4daed9d532441777ae"


def _default_task(**overrides):
    kwargs = dict(protocol="mmr14",
                  targets=("agreement", "validity", "termination"))
    kwargs.update(overrides)
    return api.VerificationTask(**kwargs)


class TestCoinFreeByteIdentity:
    def test_wire_format_is_byte_identical_to_pre_coinspec(self):
        assert json.dumps(_default_task().to_dict()) == COIN_FREE_BLOB

    def test_task_id_keeps_historical_format(self):
        task = _default_task()
        assert task.task_id == (
            "mmr14[f=1,n=4,t=1]/agreement+validity+termination@explicit"
        )

    def test_dedup_key_is_pinned(self):
        assert _default_task().dedup_key == DEFAULT_DEDUP_KEY
        assert api.VerificationTask(protocol="mmr14").dedup_key == (
            DEFAULT_DEDUP_KEY)

    def test_explicit_perfect_coin_is_the_same_identity(self):
        plain = _default_task()
        for perfect in ("perfect", PerfectCoin()):
            coined = _default_task(coin=perfect)
            assert coined.coin is None
            assert coined.task_id == plain.task_id
            assert coined.dedup_key == plain.dedup_key
            assert json.dumps(coined.to_dict()) == COIN_FREE_BLOB
            assert coined.cache_payload() == plain.cache_payload()


class TestCoinedIdentity:
    def test_coin_threads_through_every_key(self):
        plain = _default_task()
        coined = _default_task(coin="biased:1/4")
        assert coined.coin == BiasedCoin(Fraction(1, 4))
        assert coined.task_id == (
            "mmr14[f=1,n=4,t=1;coin=biased:1/4]"
            "/agreement+validity+termination@explicit"
        )
        assert coined.dedup_key != plain.dedup_key
        assert coined.to_dict()["coin"] == "biased:1/4"
        assert coined.cache_payload()["coin"] == "biased:1/4"

    def test_wire_round_trip(self):
        coined = _default_task(coin=DeltaFailingCoin(Fraction(1, 8)))
        rebuilt = api.VerificationTask.from_dict(coined.to_dict())
        assert rebuilt.coin == coined.coin
        assert rebuilt.task_id == coined.task_id
        assert rebuilt.dedup_key == coined.dedup_key

    def test_with_coin(self):
        plain = _default_task()
        coined = plain.with_coin("failing:1/8")
        assert coined.coin == DeltaFailingCoin(Fraction(1, 8))
        assert coined.with_coin(None).task_id == plain.task_id

    def test_models_are_built_under_the_coin(self):
        coined = _default_task(coin="biased:1/4")
        for target in ("agreement", "termination"):
            model = coined.model_for_target(target)
            toss = next(r for r in model.coin.rules if r.name == "rb")
            assert dict(toss.branches)["T1"] == Fraction(1, 4)
        # termination still runs on the refined model
        assert coined.model_for_target("termination").name == "mmr14-refined"

    def test_custom_model_with_coin_rejected(self):
        with pytest.raises(CheckError, match="registry tasks"):
            api.VerificationTask(model=naive_voting.model(),
                                 targets=("agreement",), coin="biased:1/4")

    def test_custom_model_with_perfect_coin_allowed(self):
        # Normalizes away before the registry-only check can object.
        task = api.VerificationTask(model=naive_voting.model(),
                                    targets=("agreement",), coin="perfect")
        assert task.coin is None


class TestMatrixCoinAxis:
    def test_default_matrix_is_unchanged(self):
        matrix = api.task_matrix()
        assert len(matrix) == 8
        assert all(task.coin is None for task in matrix)

    def test_coin_axis_orders_protocol_major_then_coin(self):
        matrix = api.task_matrix(
            protocols=("cc85a", "ks16"),
            coins=(None, "biased:1/4"),
            engines=("explicit", "parameterized"),
        )
        ids = [task.task_id for task in matrix]
        assert ids == [
            "cc85a[f=1,n=4,t=1]/agreement+validity+termination@explicit",
            "cc85a[*]/agreement+validity+termination@parameterized",
            "cc85a[f=1,n=4,t=1;coin=biased:1/4]"
            "/agreement+validity+termination@explicit",
            "cc85a[*;coin=biased:1/4]"
            "/agreement+validity+termination@parameterized",
            "ks16[f=1,n=4,t=1]/agreement+validity+termination@explicit",
            "ks16[*]/agreement+validity+termination@parameterized",
            "ks16[f=1,n=4,t=1;coin=biased:1/4]"
            "/agreement+validity+termination@explicit",
            "ks16[*;coin=biased:1/4]"
            "/agreement+validity+termination@parameterized",
        ]

    def test_sweep_runs_the_coin_axis(self):
        report = api.sweep(
            protocols=("cc85a",),
            coins=(None, "disagreeing:1/8"),
            targets=("agreement",),
            limits=api.Limits(max_states=20_000),
        )
        verdicts = {r.task_id: r.verdict for r in report.results}
        assert verdicts == {
            "cc85a[f=1,n=4,t=1]/agreement@explicit": "holds",
            "cc85a[f=1,n=4,t=1;coin=disagreeing:1/8]/agreement@explicit":
                "violated",
        }

    def test_verify_facade_accepts_coin(self):
        result = api.verify("cc85a", target="agreement", coin="biased:1/4",
                            limits=api.Limits(max_states=20_000))
        assert result.verdict == "holds"
        assert "coin=biased:1/4" in result.task_id


class TestRegistryErrors:
    def test_unknown_protocol_error_lists_sorted_names(self):
        with pytest.raises(KeyError) as excinfo:
            by_name("nope")
        message = str(excinfo.value)
        assert ", ".join(names()) in message
        assert list(names()) == sorted(names())

    def test_registry_factories_accept_coin(self):
        for name in names():
            entry = by_name(name)
            model = entry.build_model(coin="biased:1/4")
            refined = entry.verification_model(coin="biased:1/4")
            assert model.name
            assert refined.name


# ----------------------------------------------------------------------
# Property round trips of the task wire format
# ----------------------------------------------------------------------
_COINS = st.one_of(
    st.none(),
    st.sampled_from(("perfect", "biased", "failing", "disagreeing")).flatmap(
        lambda kind: st.just(kind) if kind == "perfect" else
        st.integers(2, 64).flatmap(
            lambda den: st.integers(1, den - 1).map(
                lambda num: f"{kind}:{num}/{den}"
            )
        )
    ),
)
_LIMITS = st.builds(
    api.Limits,
    max_states=st.none() | st.integers(1, 10**7),
    max_nodes=st.none() | st.integers(1, 10**6),
    max_seconds=st.none() | st.floats(0, 1e4, allow_nan=False),
)
_TASKS = st.builds(
    api.VerificationTask,
    protocol=st.sampled_from(names()),
    valuation=st.none() | st.fixed_dictionaries(
        {"n": st.integers(1, 20), "t": st.integers(0, 5),
         "f": st.integers(0, 5)}
    ),
    targets=st.lists(
        st.sampled_from(("agreement", "validity", "termination")),
        min_size=1, max_size=3, unique=True,
    ).map(tuple),
    engine=st.sampled_from(("explicit", "parameterized")),
    limits=_LIMITS,
    coin=_COINS,
)


class TestWireFormatProperties:
    @given(_TASKS)
    def test_from_dict_inverts_to_dict(self, task):
        assert api.VerificationTask.from_dict(task.to_dict()) == task

    @given(_TASKS)
    def test_json_bytes_are_stable(self, task):
        blob = json.dumps(task.to_dict())
        again = api.VerificationTask.from_dict(json.loads(blob))
        assert again == task
        assert json.dumps(again.to_dict()) == blob
