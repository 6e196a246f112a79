"""Counter-system semantics (explicit, for fixed parameter valuations).

Implements §III-C/D/E of the paper: configurations, actions, the
probabilistic transition function, schedules and paths, adversaries
(including round-rigid ones), the round-rigid reordering of Theorem 1,
and the fairness/termination side conditions of Theorem 2.
"""

from repro.counter.actions import Action
from repro.counter.adversary import (
    Adversary,
    FifoAdversary,
    RandomAdversary,
    RoundRigidAdversary,
    ScriptedAdversary,
)
from repro.counter.config import Config
from repro.counter.fairness import all_fair_executions_terminate, is_non_blocking
from repro.counter.mdp import SampledPath, sample_path
from repro.counter.reorder import check_reorder_theorem, round_rigid_reorder
from repro.counter.schedule import (
    Path,
    Schedule,
    apply_schedule,
    is_applicable,
    path,
    random_schedule,
)
from repro.counter.program import (
    CompiledRule,
    ProgramCache,
    ProtocolProgram,
    clear_program_cache,
    shared_program,
)
from repro.counter.system import CounterSystem, clear_shared_caches, shared_system

__all__ = [
    "Action",
    "Adversary",
    "CompiledRule",
    "Config",
    "CounterSystem",
    "ProgramCache",
    "ProtocolProgram",
    "FifoAdversary",
    "Path",
    "RandomAdversary",
    "RoundRigidAdversary",
    "SampledPath",
    "Schedule",
    "ScriptedAdversary",
    "all_fair_executions_terminate",
    "apply_schedule",
    "check_reorder_theorem",
    "clear_program_cache",
    "clear_shared_caches",
    "is_applicable",
    "is_non_blocking",
    "path",
    "random_schedule",
    "round_rigid_reorder",
    "sample_path",
    "shared_program",
    "shared_system",
]
