"""Randomized coverings of convex bodies by homothets.

Certified epsilon-nets, coverage certificates and falsifiers, random-cover
experiments, covering-to-illumination conversion, and dyadic scheduling of
homothety budgets, over a small dense-LP geometric core.
"""

__version__ = "0.1.0"

from .bodies import ConvexBody, HomothetPlacement, Homothets, MinkowskiCombo
from .covercert import CoverageVerdict, certify_cover, decide_cover, refute_cover
from .fnsched import RatioSequence, cover_cube_two_phase, dyadic_plan, schedule_covering
from .illum import covering_to_illumination, illuminates, run_illumination_pipeline, verify_illumination
from .nets import EpsNet, build_net, default_epsilon
from .randcover import CoverExperimentConfig, reference_bounds, run_random_cover, threshold_sum
from .randvol import RngSpec, VolumeEstimate, exact_volume, mc_volume, sample_uniform

__all__ = [
    "ConvexBody", "HomothetPlacement", "Homothets", "MinkowskiCombo",
    "CoverageVerdict", "certify_cover", "decide_cover", "refute_cover",
    "RatioSequence", "cover_cube_two_phase", "dyadic_plan", "schedule_covering",
    "covering_to_illumination", "illuminates",
    "run_illumination_pipeline", "verify_illumination",
    "EpsNet", "build_net", "default_epsilon",
    "CoverExperimentConfig", "reference_bounds", "run_random_cover", "threshold_sum",
    "RngSpec", "VolumeEstimate", "exact_volume", "mc_volume", "sample_uniform",
]
