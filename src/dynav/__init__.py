"""Polar-action navigation: simulator, proposer, graph memory, and evaluation."""

from .config import RunConfig
from .geometry import AgentBody, MotionResult, PolarAction, Pose
from .goals import GoalSpec
from .memory import MemoryGraph, SemanticFilter, merge
from .proposer import Candidate, CandidateSet
from .sensing import Observation
from .world import SemanticObject, WorldMap

__version__ = "0.1.0"

__all__ = [
    "AgentBody", "Candidate", "CandidateSet", "GoalSpec",
    "MemoryGraph", "MotionResult", "Observation", "PolarAction", "Pose",
    "RunConfig", "SemanticFilter", "SemanticObject", "WorldMap", "merge",
    "__version__",
]
