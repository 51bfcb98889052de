"""Packed-ID array utilities for the large-N paths.

:mod:`repro.compute.packing` bit-packs an :class:`~repro.core.ids.Id`
into one ``uint64``; :mod:`repro.compute.arraytable` builds ID synthesis,
prefix segmentation and the canonical receipt digest on those codes.
:mod:`repro.perf.scale`, :mod:`repro.verify.checkers` and the scale
tests import the two modules directly; the package is a leaf over
:mod:`repro.core.ids` and exports nothing itself.
"""
