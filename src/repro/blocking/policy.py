"""The candidate-generation policy: a named, serialisable blocker choice.

A :class:`CandidatePolicy` is the value that travels through the stack —
CLI flags (``repro match --blocking minhash:seed=7``), serve tenant
specs and their journal records, and the ingest bootstrap — while the
heavyweight :class:`~repro.blocking.blockers.Blocker` instance it
resolves to stays process-local.  The default (``null``) policy keeps
the exact full cross-product semantics of the seed pipeline.

Labels are ``<blocker>`` or ``<blocker>:key=value,key=value``::

    null                      every cross-source pair (the default)
    minhash                   SketchBlocker sketch channels + expansion
    minhash:seed=7,union_df=6 parameter overrides
    token                     shared-token blocking (evaluation-oriented)
    embedding                 random-hyperplane LSH over embeddings
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.blockers import (
    Blocker,
    EmbeddingLSHBlocker,
    NullBlocker,
    SketchBlocker,
    TokenBlocker,
)
from repro.errors import ConfigurationError

#: Parameter schema per blocker label: name -> (type, default).
_PARAM_SCHEMAS: dict[str, dict[str, tuple[type, object]]] = {
    "null": {},
    "minhash": {
        "num_hashes": (int, 32),
        "band_size": (int, 1),
        "seed": (int, 0),
        "union_df": (int, 8),
        "component_cap": (int, 16),
    },
    "token": {
        "use_values": (bool, True),
        "max_value_token_fraction": (float, 0.25),
    },
    "embedding": {
        "num_tables": (int, 8),
        "num_bits": (int, 8),
        "seed": (int, 0),
    },
}


def _coerce(blocker: str, key: str, value: object) -> object:
    schema = _PARAM_SCHEMAS[blocker]
    if key not in schema:
        raise ConfigurationError(
            f"unknown parameter {key!r} for blocking policy {blocker!r}; "
            f"expected one of {sorted(schema)}"
        )
    kind, _ = schema[key]
    if kind is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return bool(value)
        if isinstance(value, str) and value.lower() in {"true", "false", "0", "1"}:
            return value.lower() in {"true", "1"}
        raise ConfigurationError(f"parameter {key!r} must be a boolean, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"parameter {key!r} must be {kind.__name__}, got {value!r}"
        ) from None


@dataclass(frozen=True)
class CandidatePolicy:
    """A blocker name plus its parameters, in canonical sorted form."""

    blocker: str = "null"
    params: tuple[tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.blocker not in _PARAM_SCHEMAS:
            raise ConfigurationError(
                f"unknown blocking policy {self.blocker!r}; "
                f"expected one of {sorted(_PARAM_SCHEMAS)}"
            )
        coerced = tuple(
            sorted((key, _coerce(self.blocker, key, value)) for key, value in self.params)
        )
        object.__setattr__(self, "params", coerced)

    # -- constructors --------------------------------------------------------
    @classmethod
    def null(cls) -> "CandidatePolicy":
        return cls("null")

    @classmethod
    def from_label(cls, label: str | None) -> "CandidatePolicy":
        """Parse ``<blocker>`` or ``<blocker>:k=v,k=v`` (CLI syntax)."""
        if label is None or label in {"", "none", "off"}:
            return cls.null()
        name, _, raw_params = label.partition(":")
        params = []
        if raw_params:
            for chunk in raw_params.split(","):
                key, sep, value = chunk.partition("=")
                if not sep or not key or not value:
                    raise ConfigurationError(
                        f"malformed blocking parameter {chunk!r} in {label!r}; "
                        "expected key=value"
                    )
                params.append((key.strip(), value.strip()))
        return cls(name.strip(), tuple(params))

    @classmethod
    def from_dict(cls, payload: dict) -> "CandidatePolicy":
        if not isinstance(payload, dict) or "blocker" not in payload:
            raise ConfigurationError(
                "candidate policy payload must be a dict with a 'blocker' key"
            )
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError("candidate policy 'params' must be a dict")
        return cls(payload["blocker"], tuple(params.items()))

    # -- views ---------------------------------------------------------------
    @property
    def is_null(self) -> bool:
        return self.blocker == "null"

    @property
    def requires_embeddings(self) -> bool:
        return self.blocker == "embedding"

    @property
    def label(self) -> str:
        """Canonical label, round-trippable through :meth:`from_label`."""
        if not self.params:
            return self.blocker
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.blocker}:{rendered}"

    def to_dict(self) -> dict:
        return {"blocker": self.blocker, "params": dict(self.params)}

    # -- resolution ----------------------------------------------------------
    def resolve(self, embeddings=None) -> Blocker:
        """Build the blocker instance this policy names.

        ``embeddings`` is only consulted by policies whose
        :attr:`requires_embeddings` is true; passing it for others is
        harmless.
        """
        merged = {
            key: default for key, (_, default) in _PARAM_SCHEMAS[self.blocker].items()
        }
        merged.update(dict(self.params))
        if self.blocker == "null":
            return NullBlocker()
        if self.blocker == "minhash":
            return SketchBlocker(**merged)
        if self.blocker == "token":
            return TokenBlocker(**merged)
        if self.blocker == "embedding":
            if embeddings is None:
                raise ConfigurationError(
                    "the 'embedding' blocking policy needs word embeddings; "
                    "resolve it where the matcher's embeddings are available"
                )
            return EmbeddingLSHBlocker(embeddings, **merged)
        raise ConfigurationError(f"unknown blocking policy {self.blocker!r}")
