"""Verification tasks and resource limits.

A :class:`VerificationTask` is the unit of work of the public API: one
protocol (a registry entry by name, or a custom
:class:`~repro.core.system.SystemModel` / factory), one parameter
valuation, an obligation selection (named targets and/or explicit
queries), one engine, and one :class:`Limits`.  Tasks are plain data —
the :mod:`~repro.api.sweep` runner ships them to worker processes and
derives deterministic cache keys from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple, Union

from repro.core.coinspec import CoinSpec, resolve_coin_spec
from repro.core.system import SystemModel
from repro.errors import CheckError
from repro.protocols.registry import by_name
from repro.spec.queries import GameQuery, ReachQuery
from repro.version import stable_digest

__all__ = ["Limits", "VerificationTask", "TARGETS"]

#: The three consensus properties of the paper, in canonical order.
TARGETS: Tuple[str, ...] = ("agreement", "validity", "termination")

Query = Union[ReachQuery, GameQuery]
ModelSource = Union[SystemModel, Callable[[], SystemModel]]


@dataclass(frozen=True)
class Limits:
    """Uniform resource budget understood by *every* engine.

    ``None`` means "engine default".  Which limit actually tripped is
    reported per query in
    :attr:`repro.api.report.QueryOutcome.limit_tripped` rather than as
    a bare ``unknown``.

    Attributes:
        max_states: explicit engine — state budget per query.
        max_nodes: parameterized engine — schema-tree node budget per
            query.
        max_seconds: both engines — wall-clock budget shared by all
            queries of one obligation bundle.
    """

    max_states: Optional[int] = None
    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "max_states": self.max_states,
            "max_nodes": self.max_nodes,
            "max_seconds": self.max_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Limits":
        return cls(
            max_states=data.get("max_states"),
            max_nodes=data.get("max_nodes"),
            max_seconds=data.get("max_seconds"),
        )


@dataclass(frozen=True)
class VerificationTask:
    """One unit of verification work.

    Exactly one of ``protocol`` (a registry name, e.g. ``"mmr14"``) or
    ``model`` (a :class:`SystemModel` instance or zero-argument factory)
    must be given.  Registry tasks know their small valuation and the
    refined model for termination; custom-model tasks use the given
    model for every target and must bring their own valuation when run
    on the explicit engine.

    ``coin`` selects the :class:`~repro.core.coinspec.CoinSpec` the
    registry models are built under (a spec, a spec string like
    ``"biased:1/4"``, or None).  The default perfect coin normalizes to
    None so that an explicit ``coin="perfect"`` and the historical
    coin-free task are one identity -- ``task_id``, ``dedup_key``, the
    JSON wire format and the cache payload of coin-free tasks all stay
    byte-identical to pre-CoinSpec blobs.
    Custom-model tasks bake the coin into the model itself and must
    leave ``coin`` unset.
    """

    protocol: Optional[str] = None
    model: Optional[ModelSource] = None
    valuation: Optional[Dict[str, int]] = None
    #: named obligation bundles ("agreement" | "validity" | "termination")
    targets: Tuple[str, ...] = ()
    #: explicit extra queries, checked under the pseudo-target "custom"
    queries: Tuple[Query, ...] = ()
    engine: str = "explicit"
    limits: Limits = field(default_factory=Limits)
    #: coin model for registry protocols; None = the default perfect coin
    coin: Optional[CoinSpec] = None

    def __post_init__(self) -> None:
        if (self.protocol is None) == (self.model is None):
            raise CheckError(
                "a VerificationTask needs exactly one of protocol= (registry "
                "name) or model= (SystemModel or factory)"
            )
        if self.coin is not None:
            spec = resolve_coin_spec(self.coin)
            if spec.is_default:
                spec = None  # perfect == default: one identity, same bytes
            if spec is not None and self.model is not None:
                raise CheckError(
                    "coin= only applies to registry tasks; bake the coin "
                    "into a custom model via its factory's coin= keyword"
                )
            object.__setattr__(self, "coin", spec)
        if not self.targets and not self.queries:
            object.__setattr__(self, "targets", TARGETS)
        for target in self.targets:
            if target not in TARGETS:
                raise CheckError(
                    f"unknown target {target!r}; expected one of {TARGETS}"
                )

    # ------------------------------------------------------------------
    @property
    def protocol_name(self) -> str:
        if self.protocol is not None:
            return self.protocol
        model = self.model
        if isinstance(model, SystemModel):
            return model.name
        name = getattr(model, "__module__", "")
        return f"{name.rsplit('.', 1)[-1]}-custom" if name else "custom"

    @property
    def shard_key(self) -> str:
        """The bound system this task checks: the sweep's pool-job key.

        Protocol name, resolved valuation and coin, spelled as the
        :attr:`task_id` prefix (``"cc85a[f=1,n=4,t=1]"``).  Every target
        of one system queries the same counter system, so a sweep hands
        all of a system's tasks to one worker, which binds the system
        once and answers the rest warm.  Parameterized tasks quantify
        over every valuation and key on ``"*"``.
        """
        if self.engine == "parameterized":
            params = "*"  # the schema checker covers all valuations
        else:
            valuation = self.resolved_valuation(strict=False)
            params = (
                ",".join(f"{k}={v}" for k, v in sorted(valuation.items()))
                if valuation
                else "*"
            )
        if self.coin is not None:
            # Appended *inside* the bracket so the id stays one token;
            # coin-free tasks keep the exact historical format.
            params = f"{params};coin={self.coin.spec_str()}"
        return f"{self.protocol_name}[{params}]"

    @property
    def task_id(self) -> str:
        """Deterministic human-readable identity of this task."""
        parts = list(self.targets)
        if self.queries:
            parts.append("custom[%s]" % "+".join(q.name for q in self.queries))
        return f"{self.shard_key}/{'+'.join(parts)}@{self.engine}"

    @property
    def dedup_key(self) -> str:
        """The identity concurrent service requests collapse on.

        A digest of the task id and the resource limits, so two
        clients submitting the same registry task — same protocol,
        valuation, targets, engine *and* resource budget — share one
        computation, while any difference in what would be computed
        keeps them apart.  Code version is deliberately absent: the
        key only ever lives inside one daemon process.  What survives
        a restart is the result cache, keyed by :meth:`cache_payload`
        plus the code version.
        """
        limits = ",".join(
            f"{k}={v}" for k, v in sorted(self.limits.to_dict().items())
        )
        return stable_digest(f"{self.task_id}|{limits}", 32)

    # ------------------------------------------------------------------
    def resolved_valuation(self, strict: bool = True) -> Dict[str, int]:
        """The concrete valuation for explicit checking.

        Registry tasks default to the entry's smallest admissible
        valuation; custom-model tasks must set one explicitly (an empty
        dict is returned — or a :class:`CheckError` raised under
        ``strict`` — otherwise).
        """
        if self.valuation is not None:
            return dict(self.valuation)
        if self.engine == "parameterized":
            return {}  # the schema checker quantifies over all valuations
        if self.protocol is not None:
            try:
                return dict(by_name(self.protocol).small_valuation)
            except KeyError:
                if strict:
                    raise
                return {}
        if strict:
            raise CheckError(
                f"task on custom model {self.protocol_name!r} needs an "
                f"explicit valuation= for the {self.engine!r} engine"
            )
        return {}

    def model_for_target(self, target: str) -> SystemModel:
        """The model a target's obligations run on.

        Registry entries use the refined model for termination (the
        category C binding conditions live there); custom models are
        used as-is for every target.
        """
        if self.protocol is not None:
            entry = by_name(self.protocol)
            if target == "termination":
                return entry.verification_model(coin=self.coin)
            return entry.build_model(coin=self.coin)
        model = self.model
        if isinstance(model, SystemModel):
            return model
        return model()

    def with_coin(self, coin) -> "VerificationTask":
        """This task under another coin spec (None = perfect)."""
        return replace(self, coin=coin)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON wire format (what the verification service accepts).

        Only registry tasks with named targets serialize: a custom
        model is a live Python object and ad-hoc query objects have no
        JSON form — both raise :class:`CheckError` (run those locally
        through :func:`repro.api.sweep` instead).  ``valuation`` is
        emitted only when explicitly set, so a round trip preserves
        "use the registry default" exactly.
        """
        if self.protocol is None or self.queries:
            raise CheckError(
                "only registry tasks with named targets are JSON-"
                "serializable; custom models and ad-hoc queries cannot "
                "cross the service wire"
            )
        data = {
            "protocol": self.protocol,
            "targets": list(self.targets),
            "engine": self.engine,
            "limits": self.limits.to_dict(),
        }
        if self.valuation is not None:
            data["valuation"] = dict(self.valuation)
        if self.coin is not None:
            # Default-omitted: a coin-free task's payload is
            # byte-identical to the pre-CoinSpec wire format.
            data["coin"] = self.coin.spec_str()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationTask":
        """Rebuild a task from :meth:`to_dict` (validating targets)."""
        valuation = data.get("valuation")
        coin = data.get("coin")
        return cls(
            protocol=data["protocol"],
            valuation=(
                {k: int(v) for k, v in valuation.items()}
                if valuation is not None
                else None
            ),
            targets=tuple(data.get("targets", ())),
            engine=data.get("engine", "explicit"),
            limits=Limits.from_dict(data.get("limits", {})),
            coin=resolve_coin_spec(coin) if coin is not None else None,
        )

    # ------------------------------------------------------------------
    def cache_payload(self) -> Optional[dict]:
        """The JSON identity this task is cached under, or ``None``.

        Only registry tasks with named targets are cacheable: a custom
        model or ad-hoc query list has no stable serializable identity.
        The sweep runner completes the key with the code version.
        """
        if self.protocol is None or self.queries:
            return None
        payload = {
            "protocol": self.protocol,
            "valuation": sorted(self.resolved_valuation(strict=False).items()),
            "targets": list(self.targets),
            "engine": self.engine,
            "limits": self.limits.to_dict(),
        }
        if self.coin is not None:
            # Default-omitted, like the wire format: coin-free cache
            # keys (and thus entry digests) match pre-CoinSpec ones.
            payload["coin"] = self.coin.spec_str()
        return payload
