"""Artifact counters of the program's process-wide simulation cache."""

from __future__ import annotations

from typing import Dict

CACHE_COUNTERS = ("form_derives", "form_hits", "kernel_compiles", "kernel_hits")


def cache_counters() -> Dict[str, int]:
    from repro.runtime import shared_cache

    cache = shared_cache()
    return {name: getattr(cache, name) for name in CACHE_COUNTERS}
