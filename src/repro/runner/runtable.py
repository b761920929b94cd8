"""Declarative run tables for experiment campaigns.

A :class:`CampaignSpec` is a factor grid — generator configurations
crossed with cycle lengths, farness parameters, algorithm variants and
replicate indices.  :meth:`CampaignSpec.expand` turns it into a
:class:`RunTable` of concrete :class:`RunRow` entries, each carrying

* a stable ``run_id`` — a content hash of the row's factors, so the same
  (campaign, factors) always maps to the same id regardless of grid
  order, which is what makes resume (:mod:`repro.runner.store`) safe; and
* a deterministic per-run ``seed`` derived from the campaign master seed
  and the ``run_id``, so serial and parallel executions (and re-runs on a
  different machine) produce identical results row by row.

Specs serialise to/from JSON so campaigns can be defined once on disk and
re-expanded identically by every later ``run``/``resume`` invocation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..congest.engine import ENGINE_NAMES
from ..errors import ConfigurationError
from ..seeds import canonical_json, derive_seed
from . import registry

__all__ = [
    "ALGORITHM_NAMES",
    "ENGINE_NAMES",
    "FAULT_AWARE_ALGORITHMS",
    "STREAM_ALGORITHMS",
    "CampaignSpec",
    "RunRow",
    "RunTable",
    "canonical_json",
    "derive_seed",
]

#: Algorithm/baseline variants a run row may name (executed by
#: :mod:`repro.runner.executor`).  ``monitor`` is the incremental
#: :class:`~repro.dynamic.monitor.CkMonitor` and only exists on temporal
#: rows (``stream`` factor set).
ALGORITHM_NAMES: Tuple[str, ...] = ("tester", "detect", "naive", "gather",
                                    "monitor")

#: Variants that actually take an engine; the baselines always run on the
#: reference scheduler (their point is the per-message congestion audit),
#: so the grid expansion pins them there instead of crossing them with
#: the engines factor — no duplicate work, no mislabeled report rows.
ENGINE_AWARE_ALGORITHMS: Tuple[str, ...] = ("tester", "detect", "monitor")

#: Variants that can replay a temporal row: the incremental monitor and
#: the naive per-step from-scratch tester it is benchmarked against.
#: Other algorithms collapse the stream axis (run_id dedup drops twins),
#: exactly like the engine axis for engine-blind baselines.
STREAM_ALGORITHMS: Tuple[str, ...] = ("monitor", "tester")

#: Variants that accept a fault model.  Fault injection lives in the
#: reference scheduler, so faulted rows are also pinned to the
#: ``reference`` engine during expansion.
FAULT_AWARE_ALGORITHMS: Tuple[str, ...] = ("tester", "detect", "monitor")


@dataclass(frozen=True)
class RunRow:
    """One concrete unit of work in a campaign.

    ``stream`` (a scenario spec string, see
    :func:`repro.dynamic.streams.parse_stream_spec`) marks a *temporal*
    row: the generator builds the base graph and the named scenario is
    replayed over it.  ``faults`` (a fault spec string, see
    :func:`repro.congest.faults.parse_fault_spec`) runs the row over
    unreliable links.  Both default to ``None`` (static, reliable), which
    keeps every pre-dynamic campaign store resumable with unchanged ids.
    """

    run_id: str
    campaign: str
    generator: str
    params: Tuple[Tuple[str, Any], ...]  # sorted, hashable generator params
    k: int
    eps: float
    algorithm: str
    repetition: int
    seed: int
    engine: str = "reference"
    stream: Optional[str] = None
    faults: Optional[str] = None

    def params_dict(self) -> Dict[str, Any]:
        """Generator params as a plain dict."""
        return dict(self.params)

    def factors(self) -> Dict[str, Any]:
        """The factor coordinates (everything except run_id and seed).

        ``stream``/``faults`` appear only when set, so static reliable
        rows keep their historical record shape byte for byte.
        """
        out = {
            "campaign": self.campaign,
            "generator": self.generator,
            "params": self.params_dict(),
            "k": self.k,
            "eps": self.eps,
            "algorithm": self.algorithm,
            "engine": self.engine,
            "repetition": self.repetition,
        }
        if self.stream is not None:
            out["stream"] = self.stream
        if self.faults is not None:
            out["faults"] = self.faults
        return out


@dataclass
class RunTable:
    """An expanded campaign: ordered, de-duplicated run rows."""

    name: str
    rows: List[RunRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[RunRow]:
        return iter(self.rows)

    def row_ids(self) -> List[str]:
        """The run_id of every row, in table order."""
        return [r.run_id for r in self.rows]


def _expand_params(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Cross list-valued parameters: {"n": [64, 128], "p": 0.1} -> 2 dicts."""
    keys = sorted(params)
    pools = [
        params[key] if isinstance(params[key], (list, tuple)) else [params[key]]
        for key in keys
    ]
    for combo in itertools.product(*pools):
        yield dict(zip(keys, combo))


@dataclass
class CampaignSpec:
    """Declarative factor grid for a campaign.

    ``generators`` is a list of ``{"family": name, "params": {...}}``
    entries; list-valued params are crossed (so one entry can sweep n).
    The full grid is generators x ks x epsilons x algorithms x engines x
    streams x faults x repetitions.  ``engines`` selects the scheduler
    backend(s) (:data:`~repro.congest.engine.ENGINE_NAMES`); sweeping it
    turns any campaign into an engine benchmark/equivalence check.

    ``streams`` makes a campaign *temporal*: each non-``None`` entry is a
    scenario spec string (``"uniform-churn"``, ``"burst:steps=40"`` ...)
    replayed over the generated base graph, so churn models sweep exactly
    like static families.  ``faults`` entries are fault spec strings
    (``"drop:p=0.05"``, ``"targeted:u=0,v=1"``); faulted rows run on the
    reference engine.  ``None`` entries mean static/reliable.
    """

    name: str
    generators: List[Dict[str, Any]]
    ks: Sequence[int] = (5,)
    epsilons: Sequence[float] = (0.1,)
    algorithms: Sequence[str] = ("tester",)
    engines: Sequence[str] = ("reference",)
    streams: Sequence[Optional[str]] = (None,)
    faults: Sequence[Optional[str]] = (None,)
    repetitions: int = 1
    seed: int = 0

    def validate(self) -> None:
        """Raise ConfigurationError on any invalid factor value."""
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError("campaign needs a non-empty name")
        if not isinstance(self.generators, (list, tuple)) or not self.generators:
            raise ConfigurationError("campaign needs at least one generator")
        for attr in ("ks", "epsilons", "algorithms"):
            value = getattr(self, attr)
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigurationError(f"campaign {attr} must be a non-empty list")
        for entry in self.generators:
            if not isinstance(entry, dict) or "family" not in entry:
                raise ConfigurationError(
                    "each generator entry must be an object with a 'family'"
                )
            if not isinstance(entry.get("params", {}), dict):
                raise ConfigurationError(
                    f"generator {entry['family']!r}: params must be an object"
                )
            registry.get(entry["family"])  # raises on unknown family
        for k in self.ks:
            if k < 3:
                raise ConfigurationError(f"k must be >= 3, got {k}")
        for eps in self.epsilons:
            if not 0.0 < eps < 1.0:
                raise ConfigurationError(f"eps must be in (0,1), got {eps}")
        for algo in self.algorithms:
            if algo not in ALGORITHM_NAMES:
                raise ConfigurationError(
                    f"unknown algorithm {algo!r}; choose from "
                    f"{', '.join(ALGORITHM_NAMES)}"
                )
        if not isinstance(self.engines, (list, tuple)) or not self.engines:
            raise ConfigurationError("campaign engines must be a non-empty list")
        for eng in self.engines:
            if eng not in ENGINE_NAMES:
                raise ConfigurationError(
                    f"unknown engine {eng!r}; choose from "
                    f"{', '.join(ENGINE_NAMES)}"
                )
        for attr in ("streams", "faults"):
            value = getattr(self, attr)
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigurationError(
                    f"campaign {attr} must be a non-empty list "
                    f"(use [null] for none)"
                )
        for strm in self.streams:
            if strm is not None:
                # Validates the scenario name and every parameter key.
                from ..dynamic.streams import parse_stream_spec

                parse_stream_spec(strm)
        for flt in self.faults:
            if flt is not None:
                from ..congest.faults import parse_fault_spec

                parse_fault_spec(flt)
        if "monitor" in self.algorithms and all(
            strm is None for strm in self.streams
        ):
            raise ConfigurationError(
                "the 'monitor' algorithm is temporal: give the campaign a "
                "streams factor (e.g. streams=['uniform-churn'])"
            )
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")

    # ------------------------------------------------------------------
    def expand(self) -> RunTable:
        """Expand the grid into a RunTable with ids and per-run seeds."""
        self.validate()
        table = RunTable(self.name)
        seen = set()
        for entry in self.generators:
            family = entry["family"]
            for params in _expand_params(entry.get("params", {})):
                for k, eps, algo, eng, strm, flt, rep in itertools.product(
                    self.ks, self.epsilons, self.algorithms, self.engines,
                    self.streams, self.faults, range(self.repetitions),
                ):
                    if flt == "none":
                        # parse_fault_spec accepts the spelling 'none';
                        # normalise it so both spellings share one row
                        # identity (and no engine pinning happens).
                        flt = None
                    if algo == "monitor" and strm is None:
                        continue  # the monitor only exists on streams
                    if algo not in STREAM_ALGORITHMS:
                        # Stream-blind variant: collapse the stream axis
                        # (the run_id dedup below drops the twins).
                        strm = None
                    if algo not in FAULT_AWARE_ALGORITHMS:
                        flt = None  # baselines audit reliable links only
                    if algo not in ENGINE_AWARE_ALGORITHMS or flt is not None:
                        # Engine-independent baseline — or a faulted row:
                        # fault injection lives in the reference
                        # scheduler, so the engine axis collapses too.
                        eng = "reference"
                    factors = {
                        "campaign": self.name,
                        "generator": family,
                        "params": params,
                        "k": k,
                        "eps": eps,
                        "algorithm": algo,
                        "repetition": rep,
                    }
                    # Temporal/fault coordinates join the identity hash
                    # only when set: static reliable rows keep their
                    # historical ids, so old stores stay resumable.
                    if strm is not None:
                        factors["stream"] = strm
                    if flt is not None:
                        factors["faults"] = flt
                    # The master seed is part of a row's identity: the
                    # same grid under a new seed is a *new* set of rows,
                    # so resume never serves stale-seed results.  The
                    # engine is deliberately left out of this base hash:
                    # per-run seeds derive from it, so rows that differ
                    # only in engine draw the *same* instance and the
                    # same protocol randomness — an engine sweep is an
                    # apples-to-apples comparison (and, because engines
                    # are verdict-equivalent, an end-to-end equivalence
                    # check).  It also keeps every pre-engine campaign
                    # store resumable with unchanged ids and seeds.
                    base_id = hashlib.sha256(
                        canonical_json({**factors, "seed": self.seed}).encode()
                    ).hexdigest()[:16]
                    run_id = base_id if eng == "reference" else (
                        hashlib.sha256(
                            canonical_json(
                                {**factors, "engine": eng, "seed": self.seed}
                            ).encode()
                        ).hexdigest()[:16]
                    )
                    if run_id in seen:
                        continue  # identical factor combination listed twice
                    seen.add(run_id)
                    # Temporal rows derive their seed from an
                    # *algorithm-independent* hash (same trick as the
                    # engine axis above): the monitor row and its naive
                    # 'tester' twin then build the identical base graph,
                    # the identical mutation stream and the identical
                    # per-step seed schedule — so any temporal campaign
                    # doubles as an incremental-vs-naive equivalence
                    # comparison.  Static rows keep the historical
                    # per-algorithm seeds byte for byte.
                    seed_basis = base_id
                    if strm is not None:
                        seed_factors = {
                            key: value for key, value in factors.items()
                            if key != "algorithm"
                        }
                        seed_basis = hashlib.sha256(
                            canonical_json(
                                {**seed_factors, "seed": self.seed}
                            ).encode()
                        ).hexdigest()[:16]
                    table.rows.append(
                        RunRow(
                            run_id=run_id,
                            campaign=self.name,
                            generator=family,
                            params=tuple(sorted(params.items())),
                            k=k,
                            eps=eps,
                            algorithm=algo,
                            repetition=rep,
                            seed=derive_seed(self.seed, seed_basis),
                            engine=eng,
                            stream=strm,
                            faults=flt,
                        )
                    )
        return table

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise the spec (stable key order) for on-disk reuse."""
        return json.dumps(
            {
                "name": self.name,
                "generators": self.generators,
                "ks": list(self.ks),
                "epsilons": list(self.epsilons),
                "algorithms": list(self.algorithms),
                "engines": list(self.engines),
                "streams": list(self.streams),
                "faults": list(self.faults),
                "repetitions": self.repetitions,
                "seed": self.seed,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Parse and validate a spec written by :meth:`to_json`."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigurationError("campaign spec must be a JSON object")
        try:
            spec = cls(
                name=data["name"],
                generators=data["generators"],
                ks=data.get("ks", [5]),
                epsilons=data.get("epsilons", [0.1]),
                algorithms=data.get("algorithms", ["tester"]),
                engines=data.get("engines", ["reference"]),
                streams=data.get("streams", [None]),
                faults=data.get("faults", [None]),
                repetitions=data.get("repetitions", 1),
                seed=data.get("seed", 0),
            )
        except KeyError as exc:
            raise ConfigurationError(f"campaign spec missing field {exc}") from None
        spec.validate()
        return spec
