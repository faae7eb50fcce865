"""The HTTP wire codec: every JSON body in serve and fleet, via orjson.

:func:`dumps` and :func:`loads` are the only JSON codec on HTTP body
paths (``repro.serve.httpd``, the fleet gateway, deploy probes and
clients).  NumPy arrays encode natively, without a ``tolist()`` detour,
so a 64² roll-out response encodes in milliseconds, not ~100 ms.

The contract, for a client decoding with stdlib :func:`json.loads`:

* finite values decode bit-identical to ``json.dumps(arr.tolist())``:
  floats render as their shortest round-trip form, and float16/float32
  data is widened to float64 first, so a float32 ``0.1`` arrives as
  ``0.10000000149011612``, exactly as ``float(np.float32(0.1))``;
* non-contiguous arrays and numpy scalars encode like their copies;
* non-string dict keys (``/stats`` batch histograms) render as strings;
* the wire is RFC 8259 JSON: non-finite floats encode as ``null``, and
  :func:`loads` rejects ``NaN``/``Infinity`` tokens (and numbers that
  overflow a double) with :class:`ValueError`.

Request journals, config files and CLI output stay on stdlib ``json``.
"""

from __future__ import annotations

import numpy as np
import orjson

__all__ = ["dumps", "loads"]

_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_NON_STR_KEYS
_NESTED = (dict, list, tuple, np.ndarray, np.generic)


def _widen(obj):
    """Rewrite what orjson would encode differently from ``tolist()``.

    orjson renders float32 data at float32 precision and misreads
    non-native byte orders; everything else passes through untouched.
    Lists of plain Python values are returned as-is after one scan.
    """
    if isinstance(obj, dict):
        return {key: _widen(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        if not any(isinstance(item, _NESTED) for item in obj):
            return obj
        return [_widen(item) for item in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.dtype != np.float64:
            return obj.astype(np.float64)  # repro: ignore[RPR001] -- the wire contract: float32 decodes as its exact float64 widening
        if not obj.dtype.isnative:
            return obj.astype(obj.dtype.newbyteorder("="))
        return obj
    if isinstance(obj, np.floating) and not isinstance(obj, np.float64):
        return float(obj)
    return obj


def _default(obj):
    """orjson's fallback: arrays it cannot encode natively, odd scalars."""
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.dtype.kind in "biuf" and not obj.flags.c_contiguous:
            return np.ascontiguousarray(obj)
        return _widen(obj.tolist())  # 0-d, object or complex arrays
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Type is not JSON serializable: {type(obj).__name__}")


def dumps(obj) -> bytes:
    """Encode ``obj`` (dicts, lists, scalars, numpy arrays) as JSON bytes."""
    return orjson.dumps(_widen(obj), default=_default, option=_OPTIONS)


def loads(raw):
    """Decode a JSON body (``bytes``/``str``); raises :class:`ValueError`."""
    return orjson.loads(raw)
