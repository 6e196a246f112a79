"""repro — verifying randomized consensus protocols with common coins.

A from-scratch reproduction of *"Verifying Randomized Consensus
Protocols with Common Coins"* (Gao, Zhan, Wu, Zhang — DSN 2024):

* :mod:`repro.core` — threshold automata extended with common coins;
* :mod:`repro.counter` — counter-system semantics, adversaries and the
  round-rigid reduction theorems;
* :mod:`repro.spec` — the LTL−X property fragment and the paper's proof
  obligations (Inv1/Inv2, C1/C2/C2′, CB0–CB4);
* :mod:`repro.solver` — exact linear integer arithmetic solving (the
  SMT backend substitute);
* :mod:`repro.checker` — explicit-state and schema-based parameterized
  model checking (the ByMC substitute);
* :mod:`repro.protocols` — the 8 benchmark protocols of the paper;
* :mod:`repro.sim` — an executable asynchronous message-passing
  substrate reproducing the MMR14 adaptive-adversary attack;
* :mod:`repro.api` — the public verification facade: tasks, pluggable
  engines, JSON-serializable reports and the parallel sweep runner;
* :mod:`repro.analysis`, :mod:`repro.harness` — table/figure
  regeneration (Tables I–IV) and the ``verify``/``sweep`` CLI.

Quickstart::

    from repro import api
    result = api.verify("mmr14", valuation={"n": 4, "t": 1, "f": 1})
    print(result.verdict)          # "violated" — the paper's §II bug
    report = api.sweep(processes=4)  # the whole Table II benchmark
"""

import logging

__version__ = "1.0.0"

# Library loggers (``repro.solver.floatlp``, ``repro.checker.parameterized``,
# ...) stay quiet unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = ["__version__"]
