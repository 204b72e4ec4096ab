"""Enumeration caps.

All searches in this package are exhaustive, so every entry point that
loops over a combinatorial space is guarded by a cap.  Caps are
engineering limits, not semantic choices; exceeding one raises
:class:`ttw.errors.CapExceededError` naming the cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import CapExceededError


@dataclass(frozen=True)
class Caps:
    max_objects: int = 64
    max_morphisms: int = 4096
    # bounds the subunit count n of idempotent_families, whose meet-closed
    # families of ISub(C) may number 2^n, and the 2^n subset loop of
    # is_frame_exhaustive
    max_subunit_family_base: int = 12
    # guards the object-subset search for tensor ideals
    max_ideal_base: int = 16
    # guards downset enumeration over a poset, and bounds the generators
    # (the morphisms into the unit) of daycat.all_sieves_on_unit
    max_downset_base: int = 16
    # per-object presheaf value sets, keeps Day quotients tractable
    max_presheaf_values: int = 6
    # total cocones collected in one (co)limit search
    max_cocones: int = 200_000

    def check(self, name: str, actual: int) -> None:
        limit = getattr(self, name)
        if actual > limit:
            raise CapExceededError(name, limit, actual)

    def with_overrides(self, **kwargs: int) -> "Caps":
        for key in kwargs:
            if key not in self.__dataclass_fields__:
                raise KeyError(f"unknown cap {key!r}")
        return replace(self, **kwargs)


def apply_overrides(base: Caps, entries) -> Caps:
    """``base`` with ``NAME=N`` overrides applied in order, later entries
    winning.  Each entry is a pair (origin, text); a text without an
    integer N raises ValueError naming its origin, an unknown NAME
    raises KeyError."""
    overrides = {}
    for origin, text in entries:
        name, _, value = text.partition("=")
        try:
            overrides[name] = int(value)
        except ValueError:
            raise ValueError(f"{origin} {text!r} is not NAME=N") from None
    return base.with_overrides(**overrides)


def caps_from_env(base: Caps | None = None) -> Caps:
    """Apply TTW_MAX_OBJECTS / TTW_MAX_MORPHISMS overrides if set."""
    return apply_overrides(base or Caps(), [
        (f"{var} as cap override", f"{name}={os.environ[var]}")
        for var, name in (("TTW_MAX_OBJECTS", "max_objects"),
                          ("TTW_MAX_MORPHISMS", "max_morphisms"))
        if var in os.environ])


DEFAULT_CAPS = Caps()
