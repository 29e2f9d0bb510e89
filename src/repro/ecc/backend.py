"""Codec backend selection: ``REPRO_CODEC_BACKEND=auto|bitsliced|matrix``.

The codecs carry two interchangeable hot paths:

* ``matrix`` — the scalar per-word chunk-table fold
  (:mod:`repro.ecc.matrix`), also the differential oracle;
* ``bitsliced`` — the pure-python 64-lane engine
  (:mod:`repro.ecc.bitslice`).

``auto`` (the default) picks bitsliced, which ``bench_codec_micro``
measures at ~5x over the matrix fold on 4096-word ECC-6 batches.

The environment variable is re-read on every :func:`get_engine` call,
and an explicit :func:`set_backend` (the CLI's ``--codec-backend``)
overrides it.  The bitsliced engine is a process-wide singleton; the
per-code compiled maps it feeds are cached in
:func:`repro.ecc.matrix.cached_tables` under keys that include the
engine name, so switching backends mid-process can never hand one path
another path's tables.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError

#: Environment variable consulted when no explicit override is set.
ENV_VAR = "REPRO_CODEC_BACKEND"

#: Recognised backend request names.
BACKEND_NAMES = ("auto", "bitsliced", "matrix")

#: Slice-engine batch paths only pay off past this batch size; smaller
#: batches take the scalar matrix loop regardless of backend.
MIN_SLICED_BATCH = 16

_override: str | None = None
_bitsliced: "BitslicedEngine | None" = None


class BitslicedEngine:
    """Lane-engine facade over :mod:`repro.ecc.bitslice`."""

    name = "bitsliced"

    def __init__(self):
        from repro.ecc import bitslice

        self.transpose = bitslice.transpose
        self.untranspose = bitslice.untranspose
        self.fold = bitslice.fold
        self.or_reduce = bitslice.or_reduce
        self.xor_reduce = bitslice.xor_reduce
        self.select = bitslice.select

    @staticmethod
    def compile_map(supports, n_inputs):
        from repro.ecc import bitslice

        return bitslice.compile_map(supports, n_inputs)


def available_backends() -> list[str]:
    """Backend names usable in this process (matrix and bitsliced always)."""
    return ["matrix", "bitsliced"]


def set_backend(name: str | None) -> None:
    """Explicitly select a backend (CLI ``--codec-backend``); None clears."""
    global _override
    if name is not None and name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown codec backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
        )
    _override = name


def requested_backend() -> str:
    """The current request: explicit override, else environment, else auto."""
    if _override is not None:
        return _override
    value = os.environ.get(ENV_VAR, "auto").strip().lower() or "auto"
    return value


def selected_backend() -> str:
    """The concrete backend the current request resolves to (``auto`` is
    bitsliced)."""
    requested = requested_backend()
    if requested not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown codec backend {requested!r} (from ${ENV_VAR}); "
            f"choose from {', '.join(BACKEND_NAMES)}"
        )
    return "bitsliced" if requested == "auto" else requested


def get_engine():
    """The active lane engine, or None when the matrix path is selected."""
    global _bitsliced
    if selected_backend() == "matrix":
        return None
    if _bitsliced is None:
        _bitsliced = BitslicedEngine()
    return _bitsliced


def selection_info() -> dict:
    """Selection snapshot for observability exports.

    Keys: ``requested`` and ``selected`` (``auto`` resolves to
    ``bitsliced``).
    """
    return {"requested": requested_backend(), "selected": selected_backend()}


def reset_backend() -> None:
    """Clear the override and the engine (tests)."""
    global _override, _bitsliced
    _override = None
    _bitsliced = None
