"""Supernova detection: the paper's motivating application (§I).

A telescope photographs the same sky regions at regular intervals; epochs
are compared to find variable objects, and light-curve analysis separates
supernovae from other variables. The whole sky is one huge blob — tiles
concatenated in binary form, a 2D→1D mapping — and every epoch is a new
*version*: telescopes WRITE new tiles while analysis READs pinned earlier
snapshots, exercising exactly the read/write concurrency the system is
built for.

Real survey imagery is proprietary/huge; :mod:`repro.sky.skymodel`
synthesizes statistically realistic star fields with injected supernovae
and variable stars (ground truth known), which is what detection quality
metrics need: the synthetic sky substitutes for the survey data, and
detections are scored against the injected events.
"""

from repro.sky.skymodel import SkySpec, SkyModel, SupernovaEvent, VariableStar
from repro.sky.mapping import SkyMapping
from repro.sky.detect import Candidate, detect_sources, difference_image
from repro.sky.lightcurve import classify_lightcurve, extract_flux
from repro.sky.pipeline import CampaignReport, SupernovaPipeline

__all__ = [
    "SkySpec",
    "SkyModel",
    "SupernovaEvent",
    "VariableStar",
    "SkyMapping",
    "Candidate",
    "detect_sources",
    "difference_image",
    "classify_lightcurve",
    "extract_flux",
    "SupernovaPipeline",
    "CampaignReport",
]
